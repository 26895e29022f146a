package experiments

import (
	"fmt"
	"time"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/core"
)

// fig5Case is one runtime x deployment-method combination.
type fig5Case struct {
	runtime cloud.Runtime
	method  cloud.DeployMethod
	paper   Ref
}

// fig5Cases hold the paper's AWS cold-start results by runtime and
// deployment method (§VI-B3): ZIP CDFs overlap for Go and Python
// (median 360ms / tail 570ms); containers diverge, with Python much slower
// and far more variable (TMR 4.7).
var fig5Cases = []fig5Case{
	{cloud.RuntimeGo, cloud.DeployZIP, Ref{Median: 360 * time.Millisecond, P99: 570 * time.Millisecond}},
	{cloud.RuntimePython, cloud.DeployZIP, Ref{Median: 360 * time.Millisecond, P99: 570 * time.Millisecond}},
	{cloud.RuntimeGo, cloud.DeployContainer, Ref{Median: 370 * time.Millisecond, P99: 890 * time.Millisecond}},
	{cloud.RuntimePython, cloud.DeployContainer, Ref{Median: 612 * time.Millisecond, P99: 2882 * time.Millisecond}},
}

// Fig5RuntimeDeploy reproduces Fig. 5: AWS cold-start latency distributions
// for Python/Go runtimes deployed via ZIP archives and container images.
// The study is AWS-only, as in the paper (Google lacked container
// deployment and Azure lacked Go at submission time).
func Fig5RuntimeDeploy(opts Options) (*Figure, error) {
	opts = opts.normalized()
	fig := &Figure{
		ID:    "fig5",
		Title: "AWS cold-start latency by language runtime and deployment method",
	}
	series, err := mapSeries(opts, len(fig5Cases), func(i int, seed int64) (Series, error) {
		tc := fig5Cases[i]
		sc := core.StaticConfig{Functions: []core.FunctionConfig{{
			Name:     "rtdm",
			Runtime:  string(tc.runtime),
			Method:   string(tc.method),
			Replicas: opts.Replicas,
		}}}
		res, err := measure("aws", seed, sc, core.RuntimeConfig{
			Samples: opts.Samples,
			IAT:     core.Duration(longIATFor("aws") / time.Duration(opts.Replicas)),
		})
		if err != nil {
			return Series{}, fmt.Errorf("fig5 %s/%s: %w", tc.runtime, tc.method, err)
		}
		label := fmt.Sprintf("%s %s", tc.runtime, tc.method)
		return seriesFrom(label, 0, res, tc.paper), nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = series
	return fig, nil
}
