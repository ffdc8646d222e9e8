package trace

// Pack records recs in the packed form, for the external tests.
func Pack(recs []Record) *Packed { return pack(recs) }
