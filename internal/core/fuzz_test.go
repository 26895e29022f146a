package core

import (
	"bytes"
	"encoding/json"
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
		if sc.Validate() == nil {
			checkStatic(t, sc)
		}
	})
}

// checkStatic fails t unless a validated static config names its
// functions uniquely and has no negative replicas, exec_time or chain field.
func checkStatic(t *testing.T, sc *StaticConfig) {
	t.Helper()
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
		checkRuntime(t, rc)
		first := *rc
		if err := rc.Validate(); err != nil || *rc != first {
			t.Fatalf("revalidation: err %v, config %+v, want %+v", err, *rc, first)
		}
	})
}

// checkRuntime fails t unless a validated runtime config has positive
// samples, IAT and burst size and no negative field the client would read
// as zero.
func checkRuntime(t *testing.T, rc *RuntimeConfig) {
	t.Helper()
	if rc.Samples <= 0 || rc.IAT <= 0 || rc.BurstSize < 1 || rc.WarmupDiscard < 0 ||
		rc.ExecTime < 0 || rc.PayloadBytes < 0 {
		t.Fatalf("accepted runtime config %+v", *rc)
	}
}

// FuzzLoadSuiteConfig asserts that no suite file panics the loader or
// Validate, that an accepted suite names its experiments uniquely and holds
// only static and runtime configs their own fuzz targets would accept, and
// that revalidating an accepted suite accepts it and changes nothing. The
// committed corpus holds configs/suite.json.
func FuzzLoadSuiteConfig(f *testing.F) {
	f.Add([]byte(`{"experiments":[{"name":"e","static":{"provider":"aws","functions":[{"name":"f"}]},"runtime":{"samples":10,"iat":"1s"}}]}`))
	f.Add([]byte(`{"experiments":[{"name":"e","static":{"provider":"aws","functions":[{"name":"f"}]},"runtime":{"samples":10,"iat":"1s","payload_bytes":-1}}]}`))
	f.Add([]byte(`{"experiments":[{"name":"e"},{"name":"e"}]}`))
	f.Add([]byte(`{"experiments":[]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"experiments":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := LoadSuiteConfig(writeFuzzFile(t, data))
		if err != nil {
			return
		}
		if sc.Validate() != nil {
			return
		}
		seen := make(map[string]bool)
		for i := range sc.Experiments {
			e := &sc.Experiments[i]
			if e.Name == "" || seen[e.Name] {
				t.Fatalf("accepted unnamed or duplicate experiment %q", e.Name)
			}
			seen[e.Name] = true
			checkStatic(t, &e.Static)
			checkRuntime(t, &e.Runtime)
		}
		first, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("revalidation: %v", err)
		}
		if again, _ := json.Marshal(sc); !bytes.Equal(again, first) {
			t.Fatalf("revalidation changed the suite:\n%s\nwant\n%s", again, first)
		}
	})
}

// FuzzLoadEndpoints asserts that no endpoints file panics the loader, and
// that a loaded file saves to a file that loads and saves back to the same
// bytes. The committed corpus holds an endpoints file written by
// `stellar run -endpoints`.
func FuzzLoadEndpoints(f *testing.F) {
	f.Add([]byte(`{"provider":"aws","endpoints":[{"url":"sim://aws/f","provider":"aws","function":"f"}]}`))
	f.Add([]byte(`{"provider":"aws","endpoints":[{"url":"http://localhost:1/f","chain":[]}]}`))
	f.Add([]byte(`{"endpoints":null}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"provider":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		eps, err := LoadEndpoints(writeFuzzFile(t, data))
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "endpoints.json")
		if err := eps.Save(path); err != nil {
			t.Fatal(err)
		}
		saved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		reloaded, err := LoadEndpoints(path)
		if err != nil {
			t.Fatalf("reloading a saved endpoints file: %v", err)
		}
		if err := reloaded.Save(path); err != nil {
			t.Fatal(err)
		}
		if again, _ := os.ReadFile(path); !bytes.Equal(again, saved) {
			t.Fatalf("save/load round trip changed the file:\n%s\nwant\n%s", again, saved)
		}
	})
}
