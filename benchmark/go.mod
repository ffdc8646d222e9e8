module github.com/mess-sim/mess/benchmark

go 1.21

require github.com/mess-sim/mess v0.0.0

replace github.com/mess-sim/mess => ../
