package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// ledgerRow is one line of the append-only results ledger written by
// -out: one fixed schema for every (workload, run), with the machine
// fields needed to compare rows recorded on different hosts.
type ledgerRow struct {
	Time       string                 `json:"time"`
	Commit     string                 `json:"commit"`
	Workload   string                 `json:"workload"`
	Traced     bool                   `json:"traced"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	NProc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	CPU        string                 `json:"cpu"`
	Go         string                 `json:"go"`
	Digest     string                 `json:"digest"`
	Correct    bool                   `json:"correct"`
	Attempted  uint64                 `json:"attempted"`
	Failed     uint64                 `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
}

func appendLedger(workload string, cfg runConfig, digest string, res *result) error {
	row := ledgerRow{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Commit:     commit(),
		Workload:   workload,
		Traced:     cfg.traced,
		Seed:       cfg.seed,
		Seconds:    cfg.budget.Seconds(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Digest:     digest,
		Correct:    res.Correct,
		Attempted:  res.Attempted,
		Failed:     res.Failed,
		Metrics:    res.Metrics,
	}
	line, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	f, err := os.OpenFile(cfg.ledger, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("ledger: %w", err)
	}
	return f.Close()
}

// commit names the checked-out commit, or "unknown" outside a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the CPU model name on Linux, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
