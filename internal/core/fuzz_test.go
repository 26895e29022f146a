package core

import (
	"os"
	"path/filepath"
	"testing"
)

// writeFuzzFile writes one fuzz input to a fresh file for a loader.
func writeFuzzFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// FuzzLoadStaticConfig asserts that no static configuration file panics
// the loader or Validate, and that Validate accepts only configs the
// deployer can use as given: named, unique functions with non-negative
// replicas, exec_time and chain payload. The committed corpus holds the
// static configs of configs/*.json.
func FuzzLoadStaticConfig(f *testing.F) {
	f.Add([]byte(`{"provider":"aws","functions":[{"name":"f","runtime":"python3","method":"zip"}]}`))
	f.Add([]byte(`{"provider":"aws","functions":[{"name":"f","exec_time":"-1ms"}]}`))
	f.Add([]byte(`{"provider":"aws","functions":[{"name":"f","chain":{"length":2,"transfer":"inline","payload_bytes":-1}}]}`))
	f.Add([]byte(`{"provider":"aws","functions":[{"name":"f","chain":null}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"provider":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := LoadStaticConfig(writeFuzzFile(t, data))
		if err != nil {
			return
		}
		if sc.Validate() != nil {
			return
		}
		seen := make(map[string]bool)
		for _, fc := range sc.Functions {
			if fc.Name == "" || seen[fc.Name] {
				t.Fatalf("accepted unnamed or duplicate function %q", fc.Name)
			}
			seen[fc.Name] = true
			if fc.Replicas < 0 || fc.ExecTime < 0 {
				t.Fatalf("accepted function %q with replicas %d, exec_time %v", fc.Name, fc.Replicas, fc.ExecTime.Std())
			}
			if c := fc.Chain; c != nil && (c.Length < 2 || c.Fanout < 0 || c.PayloadBytes < 0) {
				t.Fatalf("accepted function %q with chain %+v", fc.Name, *c)
			}
		}
	})
}

// FuzzLoadRuntimeConfig asserts that no runtime configuration file panics
// the loader or Validate, that an accepted config has positive samples,
// IAT and burst size and no negative field the client would read as zero,
// and that Validate's defaults are stable: validating again accepts and
// changes nothing. The committed corpus holds the runtime configs of
// configs/*.json.
func FuzzLoadRuntimeConfig(f *testing.F) {
	f.Add([]byte(`{"samples":3000,"iat":"3s","warmup_discard":3}`))
	f.Add([]byte(`{"samples":10,"iat":"1s","exec_time":"-5ms"}`))
	f.Add([]byte(`{"samples":10,"iat":1000000000,"payload_bytes":-1048576}`))
	f.Add([]byte(`{"samples":10,"iat":"1s","iat_dist":"bursty","on_steps":-1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"samples":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rc, err := LoadRuntimeConfig(writeFuzzFile(t, data))
		if err != nil {
			return
		}
		if rc.Validate() != nil {
			return
		}
		if rc.Samples <= 0 || rc.IAT <= 0 || rc.BurstSize < 1 || rc.WarmupDiscard < 0 ||
			rc.ExecTime < 0 || rc.PayloadBytes < 0 {
			t.Fatalf("accepted runtime config %+v", *rc)
		}
		first := *rc
		if err := rc.Validate(); err != nil || *rc != first {
			t.Fatalf("revalidation: err %v, config %+v, want %+v", err, *rc, first)
		}
	})
}
