// Command easeml-worker is a standalone fleet worker agent: it registers
// with an ease.ml coordinator (easeml-server run with -fleet-addr, or any
// address serving the /fleet/* protocol), polls for leased candidates,
// trains them on the local trainsim substrate, streams heartbeats and
// reports results. Many workers can join and leave at any time; a worker
// killed mid-training simply goes silent and the coordinator re-queues its
// leases once their TTL lapses.
//
// Usage:
//
//	easeml-worker -coordinator http://host:9001 [-name NAME] [-devices 1]
//	              [-alpha 0.9] [-poll 0] [-heartbeat 0]
//	              [-log-format text|json] [-log-level info] [-version]
//
// -devices is how many candidates the worker trains concurrently. -poll
// and -heartbeat override the coordinator-advertised cadence (0 adopts
// it). The default executor is the deterministic training simulator seeded
// by the coordinator, so results are identical no matter which worker
// trains a candidate; swap internal/fleet's Executor to run real work.
//
// SIGINT/SIGTERM leave the fleet gracefully: in-flight runs are aborted
// and their leases handed back for immediate re-queueing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/fleet"
	"repro/internal/telemetry"
)

func main() {
	coordinator := flag.String("coordinator", "http://localhost:9001", "coordinator base URL (easeml-server -fleet-addr)")
	version := flag.Bool("version", false, "print the build identity and exit")
	name := flag.String("name", "", "worker name shown in the registry (default: hostname)")
	devices := flag.Int("devices", 1, "concurrent training slots")
	alpha := flag.Float64("alpha", 0.9, "advertised multi-device scaling exponent")
	poll := flag.Duration("poll", 0, "lease poll interval (0 = coordinator-advertised)")
	heartbeat := flag.Duration("heartbeat", 0, "heartbeat interval (0 = coordinator-advertised)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("easeml-worker"))
		return
	}
	telemetry.SetProcessName("easeml-worker")

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "easeml-worker: %v\n", err)
		os.Exit(1)
	}

	agent, err := fleet.NewAgent(fleet.AgentConfig{
		Coordinator:       *coordinator,
		Name:              *name,
		Devices:           *devices,
		Alpha:             *alpha,
		PollInterval:      *poll,
		HeartbeatInterval: *heartbeat,
		Logger:            logger,
	})
	if err != nil {
		logger.Error("invalid configuration", "err", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logger.Info("leaving the fleet")
		cancel()
	}()

	logger.Info("joining fleet", "coordinator", *coordinator, "devices", *devices)
	start := time.Now()
	if err := agent.Run(ctx); err != nil {
		logger.Error("agent exited", "err", err)
		os.Exit(1)
	}
	logger.Info("worker done",
		"uptime", time.Since(start).Round(time.Millisecond),
		"completed", agent.Completed(), "failed", agent.Failed())
}
