package cli

import (
	"flag"

	"github.com/stellar-repro/stellar/internal/cloud"
)

// engineFlag registers the -engine knob shared by the simulation commands.
// Both execution forms produce byte-identical results (the differential
// suite in internal/experiments proves it); the knob keeps them runnable
// and comparable forever.
type engineFlag struct {
	val *string
}

func addEngineFlag(fs *flag.FlagSet) engineFlag {
	return engineFlag{val: fs.String("engine", "auto",
		"execution form: proc (goroutine per request) or auto (event-callback warm path, procs for the rest)")}
}

// mode parses the flag value, rejecting unknown spellings.
func (f engineFlag) mode() (cloud.EngineMode, error) {
	return cloud.ParseEngineMode(*f.val)
}
