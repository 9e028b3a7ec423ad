package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe bytes.Buffer: slog handlers write from the
// agent's goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// tracesIn collects the trace IDs of JSON log lines whose msg matches.
func tracesIn(t *testing.T, logOutput, msg string) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(logOutput))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if m["msg"] != msg {
			continue
		}
		if trace, ok := m["trace"].(string); ok && trace != "" {
			out[trace] = true
		}
	}
	return out
}

// One lease's trace ID must surface in BOTH processes' structured logs: the
// coordinator mints it at pick time (lease granted / lease settled) and the
// worker carries it through execution (run completed). This is the
// end-to-end contract of the X-Easeml-Trace propagation scheme.
func TestLeaseTracePropagatesToCoordinatorAndWorkerLogs(t *testing.T) {
	sc := newTestScheduler(t)
	if _, err := sc.Submit("trace", tsProgram); err != nil {
		t.Fatal(err)
	}

	var coordBuf, workerBuf syncBuffer
	coord := NewCoordinator(sc, CoordinatorConfig{
		LeaseTTL: 2 * time.Second,
		Seed:     fleetSeed,
		Logger:   slog.New(slog.NewJSONHandler(&coordBuf, nil)),
	})
	coord.Start()
	defer coord.Stop()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	agent, err := NewAgent(AgentConfig{
		Coordinator:       srv.URL,
		Name:              "tracer",
		PollInterval:      10 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		Logger:            slog.New(slog.NewJSONHandler(&workerBuf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = agent.Run(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for agent.Completed() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-done
	if agent.Completed() == 0 {
		t.Fatal("no lease completed within the deadline")
	}

	granted := tracesIn(t, coordBuf.String(), "lease granted")
	settled := tracesIn(t, coordBuf.String(), "lease settled")
	worker := tracesIn(t, workerBuf.String(), "run completed")
	if len(granted) == 0 {
		t.Fatal("coordinator log has no 'lease granted' lines with trace IDs")
	}
	if len(worker) == 0 {
		t.Fatal("worker log has no 'run completed' lines with trace IDs")
	}
	shared := ""
	for trace := range worker {
		if granted[trace] {
			shared = trace
			break
		}
	}
	if shared == "" {
		t.Fatalf("no trace ID shared between coordinator grants %v and worker completions %v", granted, worker)
	}
	if !settled[shared] {
		t.Errorf("trace %s completed on the worker but has no coordinator 'lease settled' line", shared)
	}
}
