package experiments

import (
	"fmt"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/core"
)

// TransferProviders are the providers supporting the paper's transfer
// studies (Azure lacked a Go runtime, §VI-C footnote 6).
var TransferProviders = []string{"aws", "google"}

// Fig6Payloads is the inline-transfer payload sweep (bounded by the
// providers' inline size limits: 6MB AWS / 10MB Google).
var Fig6Payloads = []int64{1 << 10, 10 << 10, 100 << 10, 1 << 20, 4 << 20}

// fig6Refs hold the paper's inline transfer times (§VI-C1). Only the
// explicitly reported points carry values.
var fig6Refs = map[string]map[int64]Ref{
	"aws": {
		1 << 10: {Median: 11 * time.Millisecond},
		1 << 20: {Median: 41 * time.Millisecond, P99: 70 * time.Millisecond},
		4 << 20: {Median: 124 * time.Millisecond, P99: 174 * time.Millisecond},
	},
	"google": {
		1 << 10: {Median: 7 * time.Millisecond},
		1 << 20: {Median: 62 * time.Millisecond, P99: 88 * time.Millisecond},
		4 << 20: {Median: 202 * time.Millisecond, P99: 263 * time.Millisecond},
	},
}

// chainConfig builds the two-function Go chain the paper uses for transfer
// studies (§V), with the given transport.
func chainConfig(transfer string, payload int64) core.StaticConfig {
	return core.StaticConfig{Functions: []core.FunctionConfig{{
		Name:    "xfer",
		Runtime: string(cloud.RuntimeGo),
		Method:  string(cloud.DeployZIP),
		Chain:   &core.ChainConfig{Length: 2, Transfer: transfer, PayloadBytes: payload},
	}}}
}

// runTransfer measures instrumented producer->consumer transfer times for
// one provider/transport/payload configuration with warm instances. The IAT
// stretches for very large payloads so consecutive transfers never overlap
// (one outstanding request per function, as in §V).
func runTransfer(prov string, seed int64, transfer string, payload int64, samples int) (*core.RunResult, error) {
	iat := shortIAT
	if payload >= 100<<20 {
		// Long enough that transfers never overlap, short enough that no
		// provider's keep-alive reaps the idle instances in between.
		iat = 45 * time.Second
	}
	return measure(prov, seed, chainConfig(transfer, payload), core.RuntimeConfig{
		Samples:       samples,
		IAT:           core.Duration(iat),
		WarmupDiscard: 3, // first invocations cold-start both chain members
	})
}

// Fig6Inline reproduces Fig. 6: inline data-transfer latency as a function
// of payload size, using STeLLAR's intra-function timestamp
// instrumentation (§IV) to isolate the transfer from the end-to-end path.
func Fig6Inline(opts Options) (*Figure, error) {
	opts = opts.normalized()
	fig := &Figure{
		ID:    "fig6",
		Title: "Inline data-transfer latency vs. payload size",
		Notes: []string{"two-function Go chain; instrumented producer->consumer transfer time"},
	}
	cases := transferCases(Fig6Payloads)
	series, err := mapSeries(opts, len(cases), func(i int, seed int64) (Series, error) {
		c := cases[i]
		res, err := runTransfer(c.prov, seed, "inline", c.payload, opts.Samples)
		if err != nil {
			return Series{}, fmt.Errorf("fig6 %s %dB: %w", c.prov, c.payload, err)
		}
		label := fmt.Sprintf("%s %s", c.prov, sizeLabel(c.payload))
		return transferSeriesFrom(label, float64(c.payload), res, fig6Refs[c.prov][c.payload])
	})
	if err != nil {
		return nil, err
	}
	fig.Series = series
	return fig, nil
}

// transferCase is one provider/payload cell of a transfer sweep.
type transferCase struct {
	prov    string
	payload int64
}

// transferCases enumerates a payload sweep across TransferProviders in the
// figures' fixed order (the shard index of each cell must be stable).
func transferCases(payloads []int64) []transferCase {
	var cases []transferCase
	for _, prov := range TransferProviders {
		for _, payload := range payloads {
			cases = append(cases, transferCase{prov, payload})
		}
	}
	return cases
}

// sizeLabel formats a payload size the way the paper's axes do.
func sizeLabel(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%dGB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
