package server_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/server"
)

// BenchmarkSubmit times one op = a fresh scheduler taking 256 submissions
// that alternate an image and a time-series program — what drain_engine's
// set-up does per drain, without the service around it.
func BenchmarkSubmit(b *testing.B) {
	const jobs = 256
	for b.Loop() {
		sc := server.NewScheduler(server.NewSimTrainer(cluster.NewPool(24, 0.9), 1), nil, "")
		for i := range jobs {
			prog := tsProgram
			if i%2 == 0 {
				prog = imgProgram
			}
			if _, err := sc.Submit(fmt.Sprintf("tenant-%03d", i), prog); err != nil {
				b.Fatal(err)
			}
		}
	}
}
