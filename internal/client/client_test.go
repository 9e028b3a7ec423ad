package client

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServer returns canned JSON for each endpoint so the client's encode/
// decode and error paths are tested independently of the real server (the
// full loop is covered by internal/server's integration tests).
func fakeServer(t *testing.T, status int, body string) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	}))
}

func TestSubmitDecodes(t *testing.T) {
	srv := fakeServer(t, http.StatusCreated,
		`{"id":"job-0001","template":"image-classification","candidates":["AlexNet"],"julia":"","python":""}`)
	defer srv.Close()
	resp, err := New(srv.URL).Submit(context.Background(), "x", "{...}")
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != "job-0001" || resp.Template != "image-classification" || len(resp.Candidates) != 1 {
		t.Errorf("resp %+v", resp)
	}
}

func TestErrorEnvelopeSurfaces(t *testing.T) {
	srv := fakeServer(t, http.StatusBadRequest, `{"error":"dsl: boom"}`)
	defer srv.Close()
	cl := New(srv.URL)
	_, err := cl.Submit(context.Background(), "x", "bad")
	if err == nil || !strings.Contains(err.Error(), "dsl: boom") {
		t.Errorf("error %v does not surface the server message", err)
	}
	if !strings.Contains(err.Error(), "400") {
		t.Errorf("error %v does not mention the status code", err)
	}
}

func TestNonJSONErrorStillErrors(t *testing.T) {
	srv := fakeServer(t, http.StatusInternalServerError, "tilt")
	defer srv.Close()
	if _, err := New(srv.URL).Jobs(context.Background()); err == nil {
		t.Error("HTTP 500 with non-JSON body did not error")
	}
}

func TestGarbageSuccessBodyErrors(t *testing.T) {
	srv := fakeServer(t, http.StatusOK, "not json")
	defer srv.Close()
	if _, err := New(srv.URL).Status(context.Background(), "j"); err == nil {
		t.Error("garbage body decoded")
	}
}

func TestConnectionRefused(t *testing.T) {
	ctx := context.Background()
	cl := New("http://127.0.0.1:1") // nothing listens on port 1
	if _, err := cl.Jobs(ctx); err == nil {
		t.Error("dead server did not error")
	}
	if err := cl.Refine(ctx, "j", 1, true); err == nil {
		t.Error("dead server Refine did not error")
	}
	if _, err := cl.Feed(ctx, "j", nil, nil); err == nil {
		t.Error("dead server Feed did not error")
	}
	if _, err := cl.Infer(ctx, "j", nil); err == nil {
		t.Error("dead server Infer did not error")
	}
	if _, err := cl.RunRounds(ctx, 1); err == nil {
		t.Error("dead server RunRounds did not error")
	}
	if _, err := cl.FleetStatus(ctx); err == nil {
		t.Error("dead server FleetStatus did not error")
	}
}

// A NaN or ±Inf float is refused before anything is sent, on every method
// that sends floats.
func TestNonFiniteFloatsAreNotSent(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
	}))
	defer srv.Close()
	cl, ctx := New(srv.URL), context.Background()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		row := []float64{1, bad}
		if ids, err := cl.Feed(ctx, "j", [][]float64{{1, 2}, row}, [][]float64{{1}, {0}}); err == nil || ids != nil {
			t.Errorf("Feed with input %v: ids %v, err %v", bad, ids, err)
		}
		if _, err := cl.Feed(ctx, "j", [][]float64{{1, 2}}, [][]float64{row}); err == nil {
			t.Errorf("Feed with output %v succeeded", bad)
		}
		if _, err := cl.Infer(ctx, "j", row); err == nil {
			t.Errorf("Infer with %v succeeded", bad)
		}
		if _, err := cl.InferBatch(ctx, "j", [][]float64{row}); err == nil {
			t.Errorf("InferBatch with %v succeeded", bad)
		}
		if _, err := cl.InferStream(ctx, "j", [][]float64{row}, func(int, []float64) error { return nil }); err == nil {
			t.Errorf("InferStream with %v succeeded", bad)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("%d requests reached the server", n)
	}
}

func TestBaseURLTrimmed(t *testing.T) {
	srv := fakeServer(t, http.StatusOK, `{"jobs":["a"]}`)
	defer srv.Close()
	jobs, err := New(srv.URL + "///").Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0] != "a" {
		t.Errorf("jobs %v", jobs)
	}
}

// A cancelled context aborts an in-flight request promptly — the caller,
// not the 30s default timeout, owns the deadline.
func TestContextCancelsInFlightRequest(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := New(srv.URL).Jobs(ctx)
	if err == nil {
		t.Fatal("cancelled request succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s; the default timeout answered instead", elapsed)
	}
}

// WithTimeout bounds requests made with a background context.
func TestWithTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)

	cl := New(srv.URL, WithTimeout(30*time.Millisecond))
	start := time.Now()
	if _, err := cl.Jobs(context.Background()); err == nil {
		t.Fatal("request outlived WithTimeout")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout fired after %s, want ~30ms", elapsed)
	}
}

// WithHTTPClient substitutes the transport; WithTimeout layered on top
// must not mutate the caller's client.
func TestWithHTTPClient(t *testing.T) {
	var sawHeader bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawHeader = r.Header.Get("X-Test") == "yes"
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"jobs":[]}`))
	}))
	defer srv.Close()

	custom := &http.Client{Transport: headerTransport{}}
	cl := New(srv.URL, WithHTTPClient(custom), WithTimeout(time.Second))
	if _, err := cl.Jobs(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !sawHeader {
		t.Error("custom transport was not used")
	}
	if custom.Timeout != 0 {
		t.Errorf("WithTimeout mutated the caller's http.Client (timeout %s)", custom.Timeout)
	}
}

// headerTransport stamps a marker header so tests can prove the custom
// client was used.
type headerTransport struct{}

func (headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set("X-Test", "yes")
	return http.DefaultTransport.RoundTrip(r)
}
