package harness

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"pado/internal/core"
	"pado/internal/profile"
	"pado/internal/trace"
	"pado/internal/vtime"
)

// Flags are the command-line flags padorun and padobench share. Each
// binary registers them with its own defaults (RegisterFlags) and turns
// them into one Params (Flags.Params), so engine, workload, rate and
// policy names are parsed in one place.
type Flags struct {
	engine, workload, rate, policy, httpAddr *string
	transient, reserved, scaleMS             *int
	seed                                     *int64
	cpuProfile, memProfile                   *string
}

// FlagDefaults are one binary's default values for the shared flags.
type FlagDefaults struct {
	Engine, Workload, Rate       string
	Transient, Reserved, ScaleMS int
	Seed                         int64
}

// RegisterFlags defines the shared flags on fs with the given defaults.
func RegisterFlags(fs *flag.FlagSet, d FlagDefaults) *Flags {
	return &Flags{
		engine:    fs.String("engine", d.Engine, "engine: pado, spark, spark-checkpoint"),
		workload:  fs.String("workload", d.Workload, "workload: mr, mlr, als"),
		rate:      fs.String("rate", d.Rate, "eviction rate: none, low, medium, high"),
		transient: fs.Int("transient", d.Transient, "transient containers"),
		reserved:  fs.Int("reserved", d.Reserved, "reserved containers"),
		scaleMS:   fs.Int("scale", d.ScaleMS, "wall milliseconds per paper minute"),
		seed:      fs.Int64("seed", d.Seed, "experiment seed"),
		policy: fs.String("policy", "", "placement policy for the pado engine: "+
			strings.Join(core.PolicyNames(), ", ")+" (default: paper)"),
		httpAddr: fs.String("http", "",
			"serve the live introspection plane on this address while the run is up "+
				"(pado engine only; e.g. 127.0.0.1:7777, :0 picks a port; monitor with padotop)"),
		cpuProfile: fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		memProfile: fs.String("memprofile", "", "write a pprof heap profile to this file on exit"),
	}
}

// Params parses the shared flags into the Params fields they set. An
// unknown engine, workload, rate or policy name is an error.
func (f *Flags) Params() (Params, error) {
	p := Params{
		Transient: *f.transient,
		Reserved:  *f.reserved,
		Scale:     vtime.NewScale(time.Duration(*f.scaleMS) * time.Millisecond),
		Seed:      *f.seed,
		Policy:    *f.policy,
		HTTPAddr:  *f.httpAddr,
	}
	var err error
	if p.Engine, err = ParseEngine(*f.engine); err != nil {
		return Params{}, err
	}
	if p.Workload, err = ParseWorkload(*f.workload); err != nil {
		return Params{}, err
	}
	if p.Rate, err = ParseRate(*f.rate); err != nil {
		return Params{}, err
	}
	if _, err := core.PolicyByName(p.Policy); err != nil {
		return Params{}, err
	}
	return p, nil
}

// StartProfile starts the pprof session the -cpuprofile/-memprofile
// flags ask for; Stop it on exit.
func (f *Flags) StartProfile() (*profile.Session, error) {
	return profile.Start(*f.cpuProfile, *f.memProfile)
}

// ParseEngine parses an engine name (case-insensitive).
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(s) {
	case "spark":
		return EngineSpark, nil
	case "spark-checkpoint", "ck", "checkpoint":
		return EngineSparkCheckpoint, nil
	case "pado":
		return EnginePado, nil
	}
	return 0, fmt.Errorf("unknown engine %q", s)
}

// ParseWorkload parses a workload name (case-insensitive).
func ParseWorkload(s string) (Workload, error) {
	switch strings.ToLower(s) {
	case "als":
		return WorkloadALS, nil
	case "mlr":
		return WorkloadMLR, nil
	case "mr":
		return WorkloadMR, nil
	}
	return 0, fmt.Errorf("unknown workload %q", s)
}

// ParseRate parses an eviction-rate name (case-insensitive).
func ParseRate(s string) (trace.Rate, error) {
	switch strings.ToLower(s) {
	case "none":
		return trace.RateNone, nil
	case "low":
		return trace.RateLow, nil
	case "medium", "med":
		return trace.RateMedium, nil
	case "high":
		return trace.RateHigh, nil
	}
	return 0, fmt.Errorf("unknown rate %q", s)
}
