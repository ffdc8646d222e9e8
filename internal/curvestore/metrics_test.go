package curvestore

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/mess-sim/mess/internal/telemetry"
)

// promSeries parses a Prometheus text-format body the strict way: every
// line must be a # HELP / # TYPE comment or a `name{labels} value` sample
// whose value strconv parses. Returns the samples by full series name.
func promSeries(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			t.Fatalf("not Prometheus text format: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparsable sample value in %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// TestMetricsEndpointServesPrometheusText drives the exact handler stack
// cmd/messcurved serves — store handler behind the Instrumented middleware,
// store and client counters registered in one registry, /metrics from
// Registry.Handler — and asserts the scrape is valid Prometheus text whose
// counters reflect the traffic that just happened.
func TestMetricsEndpointServesPrometheusText(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := NewServer(NewMemory(0), ServerConfig{})
	srv.Register(reg)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", Instrumented(reg, srv))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	client := fastClient(t, ts.URL)
	client.Instrument(reg)
	key := testKey(42)
	if _, ok, err := client.Load(bg, key); ok || err != nil {
		t.Fatalf("load before save: ok=%v err=%v", ok, err)
	}
	if err := client.Save(bg, key, testFam("metrics")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := client.Load(bg, key); !ok || err != nil {
		t.Fatalf("load after save: ok=%v err=%v", ok, err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text exposition", ct)
	}

	series := promSeries(t, string(body))
	for name, min := range map[string]float64{
		"mess_curved_hits_total":                      1,
		"mess_curved_misses_total":                    1,
		"mess_curved_puts_total":                      1,
		"mess_curved_request_seconds_count":           3,
		`mess_curve_client_requests_total{op="load"}`: 2,
		`mess_curve_client_requests_total{op="save"}`: 1,
		"mess_curve_client_hits_total":                1,
	} {
		if got := series[name]; got < min {
			t.Errorf("%s = %g, want >= %g\nscrape:\n%s", name, got, min, body)
		}
	}

	// The /metrics scrape itself must not ride through the store counters.
	if got := series["mess_curved_misses_total"]; got != 1 {
		t.Errorf("mess_curved_misses_total = %g after 1 miss, want exactly 1", got)
	}
}
