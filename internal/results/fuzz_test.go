package results

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/stellar-repro/stellar/internal/dist"
)

// FuzzLoad asserts that no saved-run file panics the loader or the analysis
// `stellar compare` runs on what the loader accepts, and that an accepted
// record survives a save/load round trip unchanged. The committed corpus
// holds real -save records of trace, bench, scale and workflow runs.
func FuzzLoad(f *testing.F) {
	f.Add([]byte(`{"name":"tiny","latencies_ns":[5000000,7000000,6000000]}`))
	f.Add([]byte(`{"name":"neg","latencies_ns":[-1,0,9223372036854775807]}`))
	f.Add([]byte(`{"name":"t","latencies_ns":[10000000],"traces":[{"id":1,"fn":"f","start_ns":0,"end_ns":10000000,"spans":[{"stage":"exec","start_ns":0,"dur_ns":10000000}]}]}`))
	f.Add([]byte(`{"name":"sk","sketch":{"alpha":0.005,"count":0}}`))
	f.Add([]byte(`{"name":"x","latencies_ns":[]}`))
	f.Add([]byte(`{"name":"x","edge_sketches":[{"name":"a->b"}],"latencies_ns":[1]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"name":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "run.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Load(path)
		if err != nil {
			return // rejected without panicking: fine
		}

		// Whatever Load accepts has a distribution to summarize.
		r, err := rec.Recorder()
		if err != nil {
			t.Fatalf("accepted record has no recorder: %v", err)
		}
		if r.Count() > 0 {
			r.Quantile(0.5)
			r.Quantile(0.99)
		}
		if n := len(rec.LatenciesNS); n > 0 && n <= 1000 {
			Compare(rec, rec, 0.95, 10, dist.NewStreams(1).Stream("fuzz"))
		}

		// Save then reload: the second generation is byte-identical.
		first, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("marshal accepted record: %v", err)
		}
		again := filepath.Join(dir, "again.json")
		if err := rec.Save(again); err != nil {
			t.Fatal(err)
		}
		rec2, err := Load(again)
		if err != nil {
			t.Fatalf("reload of a saved accepted record failed: %v", err)
		}
		second, err := json.Marshal(rec2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("save/load round trip changed the record:\n%s\n%s", first, second)
		}
	})
}
