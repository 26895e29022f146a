package core

import (
	"fmt"

	"github.com/stellar-repro/stellar/internal/cloud"
	"github.com/stellar-repro/stellar/internal/des"
)

// SimTransport executes load plans against one or more simulated clouds in
// virtual time. Requests scheduled at the same offset are issued
// simultaneously (the paper's burst semantics); each request runs as its
// own process, mirroring STeLLAR's goroutine-per-request client.
type SimTransport struct {
	eng    *des.Engine
	clouds map[string]*cloud.Cloud
}

// NewSimTransport wires the transport to the engine and clouds (keyed by
// provider name).
func NewSimTransport(eng *des.Engine, clouds ...*cloud.Cloud) *SimTransport {
	st := &SimTransport{eng: eng, clouds: make(map[string]*cloud.Cloud, len(clouds))}
	for _, c := range clouds {
		st.clouds[c.Config().Name] = c
	}
	return st
}

// Execute implements Transport. It schedules every planned request on the
// virtual clock, runs the engine until all responses arrive, and returns
// the samples in plan order. Virtual time continues from the engine's
// current clock, so back-to-back Execute calls model consecutive runs.
func (st *SimTransport) Execute(plan []PlannedRequest) ([]Sample, error) {
	samples := make([]Sample, len(plan))
	base := st.eng.Now()
	for i := range plan {
		pr := plan[i]
		c, ok := st.clouds[pr.Endpoint.Provider]
		if !ok {
			return nil, fmt.Errorf("core: no simulated cloud for provider %q", pr.Endpoint.Provider)
		}
		slot := &samples[i]
		st.eng.CallAt(base+pr.At, func() {
			start := st.eng.Now()
			req := &cloud.Request{
				Fn:                pr.Endpoint.Function,
				ExecTime:          pr.ExecTime,
				ChainPayloadBytes: pr.PayloadBytes,
			}
			// InvokeAsync picks the cloud's execution form per request:
			// the callback fast path for eligible warm-path requests, a
			// spawned proc (the classic goroutine-per-request client)
			// otherwise. Both start at this instant, so the measured
			// latency is identical either way. The response is borrowed —
			// copy everything out inside the callback.
			c.InvokeAsync(req, func(resp *cloud.Response, err error) {
				slot.At = pr.At
				slot.Latency = st.eng.Now() - start
				slot.Err = err
				if resp != nil {
					slot.Cold = resp.Cold
					slot.InstanceID = resp.InstanceID
					slot.QueueWait = resp.QueueWait
					slot.Breakdown = resp.Breakdown
					slot.BilledGBSeconds = resp.BilledGBSeconds
					if len(pr.Endpoint.Chain) >= 2 {
						if t, ok := resp.TransferTime(pr.Endpoint.Chain[0], pr.Endpoint.Chain[1]); ok {
							slot.TransferTime = t
						}
					}
				}
			})
		})
	}
	st.eng.Run(0)
	return samples, nil
}
