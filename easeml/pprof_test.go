package easeml

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// The profiler must be mounted only behind the opt-in flag, and the
// selection counters must surface through both the facade and the metrics
// endpoint.
func TestPprofMountAndSelectionMetrics(t *testing.T) {
	const program = "{input: {[Tensor[4]], [next]}, output: {[Tensor[2]], []}}"

	plain := NewService(ServiceConfig{Seed: 5})
	plainSrv := httptest.NewServer(plain.Handler())
	defer plainSrv.Close()
	if resp, err := http.Get(plainSrv.URL + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("pprof reachable without ServiceConfig.Pprof")
		}
	}

	svc := NewService(ServiceConfig{Seed: 5, Pprof: true})
	if _, err := svc.Submit("prof", program); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RunRounds(3); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/debug/pprof/symbol")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof symbol: status %d", resp.StatusCode)
	}

	// The service API must still work side by side with the profiler.
	m := scrape(t, srv.URL)
	picks := m[`easeml_selection_events_total{event="picks"}`]
	if bumps := m[`easeml_selection_events_total{event="epoch_bumps"}`]; picks == 0 || bumps == 0 {
		t.Fatalf("selection counters missing from /metrics: picks %g, epoch bumps %g", picks, bumps)
	}

	// Every posterior refresh of this healthy service extended the surface
	// by the rows observed since the last read; none started over.
	misses := m[`easeml_bandit_cache_events_total{cache="posterior",event="misses"}`]
	rebuilds, ok := m[`easeml_bandit_cache_events_total{cache="posterior",event="rebuilds"}`]
	if misses == 0 || !ok || rebuilds != 0 {
		t.Fatalf("posterior cache counters in /metrics: %g misses, rebuilds %g (present %v); want misses and a zero rebuilds sample", misses, rebuilds, ok)
	}

	st := svc.SelectionMetrics()
	if float64(st.Picks) != picks {
		t.Fatalf("facade picks %d vs scrape %g", st.Picks, picks)
	}
	if st.BanditCache.Select.Misses == 0 {
		t.Fatalf("bandit cache counters not aggregated: %+v", st.BanditCache)
	}
}
