package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment is recorded with every result file, so numbers are keyed by
// the machine and by the tree that was actually measured.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	// Commit is `git rev-parse HEAD`; Dirty says the working tree differs
	// from it, and TreeHash then identifies the difference (a hash of
	// `git diff HEAD` plus the untracked-file list), so two results with one
	// Commit but different edits are not mistaken for the same code.
	Commit   string `json:"commit"`
	Dirty    bool   `json:"dirty"`
	TreeHash string `json:"tree_hash,omitempty"`
	Harness  string `json:"harness_version"`
}

func readEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Commit:     "unknown", // a checkout without git metadata
		Harness:    harnessVersion,
	}
	if head, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(head))
		diff, _ := exec.Command("git", "diff", "HEAD").Output()
		status, _ := exec.Command("git", "status", "--porcelain").Output()
		if len(diff) > 0 || len(status) > 0 {
			sum := sha256.Sum256(append(diff, status...))
			env.Dirty, env.TreeHash = true, hex.EncodeToString(sum[:6])
		}
	}
	return env
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
