package core_test

import (
	"slices"
	"testing"
	"time"

	"github.com/stellar-repro/stellar/internal/core"
	"github.com/stellar-repro/stellar/internal/experiments"
)

// TestFanoutChainTimestampsFromLastBranch pins which branch of a fan-out
// chain supplies the consumer's ".recv" timestamp: branches merge their
// timestamps in completion order, so the last branch to finish wins. On a
// storage chain the last branch finishes exactly when the producer's
// downstream window closes, at send + PayloadStore + Downstream, and its
// ".recv" precedes that by the consumer's execution time. A merge in any
// other order (branch index, say) picks an earlier-finishing branch on
// almost every invocation of a jittery profile.
func TestFanoutChainTimestampsFromLastBranch(t *testing.T) {
	env, err := experiments.NewEnv("aws", 7)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	const exec = 20 * time.Millisecond
	eps, err := env.Deployer().Deploy(&core.StaticConfig{
		Provider: "aws",
		Functions: []core.FunctionConfig{{
			Name: "scatter", Runtime: "go1.x", Method: "zip",
			ExecTime: core.Duration(exec),
			Chain: &core.ChainConfig{
				Length: 2, Transfer: "storage", PayloadBytes: 1 << 20, Fanout: 8,
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := env.Client().Run(eps.Endpoints, core.RuntimeConfig{
		Samples:       30,
		IAT:           core.Duration(3 * time.Second),
		WarmupDiscard: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 30 || res.Errors != 0 {
		t.Fatalf("%d samples, %d errors; want 30 and 0", len(res.Samples), res.Errors)
	}
	got := make([]time.Duration, len(res.Samples))
	for i, s := range res.Samples {
		bd := s.Breakdown
		if last := bd.PayloadStore + bd.Downstream - exec; s.TransferTime != last {
			t.Errorf("sample %d: transfer %v, want the last-completed branch's %v", i, s.TransferTime, last)
		}
		got[i] = s.TransferTime
	}
	// The client's Transfers sample for this run, in ns.
	want := []time.Duration{
		152411835, 368811790, 135589270, 99116709, 156862016,
		157004002, 151260086, 132511239, 160026772, 297854348,
		125413693, 108177327, 103672973, 215670523, 134570594,
		194469094, 125664393, 173724499, 1177837556, 760977496,
		136138759, 146519714, 250826243, 547477380, 439574949,
		186176549, 137617142, 153699035, 190474549, 122432874,
	}
	if !slices.Equal(got, want) || res.Transfers.Len() != len(want) {
		t.Fatalf("transfers = %#v (%d in the Transfers sample), want %#v", got, res.Transfers.Len(), want)
	}
}
