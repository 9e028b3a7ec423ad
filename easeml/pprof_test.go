package easeml

import (
	"encoding/json"
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
	resp, err = http.Get(srv.URL + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var metrics struct {
		Selection struct {
			Picks       uint64 `json:"picks"`
			OraclePicks uint64 `json:"oracle_picks"`
			EpochBumps  uint64 `json:"epoch_bumps"`
			BanditCache struct {
				Posterior struct {
					Misses   uint64  `json:"misses"`
					Rebuilds *uint64 `json:"rebuilds"`
				} `json:"posterior"`
			} `json:"bandit_cache"`
		} `json:"selection"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Selection.Picks == 0 || metrics.Selection.OraclePicks == 0 || metrics.Selection.EpochBumps == 0 {
		t.Fatalf("selection counters missing from /admin/metrics: %+v", metrics.Selection)
	}

	// Every posterior refresh of this healthy service extended the surface
	// by the rows observed since the last read; none started over.
	if pc := metrics.Selection.BanditCache.Posterior; pc.Misses == 0 || pc.Rebuilds == nil || *pc.Rebuilds != 0 {
		t.Fatalf("posterior cache counters in /admin/metrics: %d misses, rebuilds %v; want misses and a zero rebuilds field", pc.Misses, pc.Rebuilds)
	}

	st := svc.SelectionMetrics()
	if st.Picks != metrics.Selection.Picks {
		t.Fatalf("facade picks %d vs endpoint %d", st.Picks, metrics.Selection.Picks)
	}
	if st.BanditCache.Select.Misses == 0 {
		t.Fatalf("bandit cache counters not aggregated: %+v", st.BanditCache)
	}
}
