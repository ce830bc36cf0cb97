package harness

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"pado/internal/trace"
	"pado/internal/vtime"
)

func parseFlags(args ...string) (Params, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterFlags(fs, FlagDefaults{
		Engine: "pado", Workload: "mr", Rate: "none",
		Transient: 40, Reserved: 5, ScaleMS: 60, Seed: 7,
	})
	if err := fs.Parse(args); err != nil {
		return Params{}, err
	}
	return f.Params()
}

func TestFlagsParams(t *testing.T) {
	defaults := Params{
		Engine: EnginePado, Workload: WorkloadMR, Rate: trace.RateNone,
		Transient: 40, Reserved: 5, Scale: vtime.NewScale(60 * time.Millisecond), Seed: 7,
	}
	for _, tc := range []struct {
		args []string
		set  func(*Params)
	}{
		{nil, func(*Params) {}},
		{[]string{"-engine", "spark"}, func(p *Params) { p.Engine = EngineSpark }},
		{[]string{"-engine", "Spark-Checkpoint"}, func(p *Params) { p.Engine = EngineSparkCheckpoint }},
		{[]string{"-engine", "ck"}, func(p *Params) { p.Engine = EngineSparkCheckpoint }},
		{[]string{"-workload", "als"}, func(p *Params) { p.Workload = WorkloadALS }},
		{[]string{"-workload", "MLR"}, func(p *Params) { p.Workload = WorkloadMLR }},
		{[]string{"-rate", "low"}, func(p *Params) { p.Rate = trace.RateLow }},
		{[]string{"-rate", "med"}, func(p *Params) { p.Rate = trace.RateMedium }},
		{[]string{"-rate", "high"}, func(p *Params) { p.Rate = trace.RateHigh }},
		{[]string{"-transient", "12"}, func(p *Params) { p.Transient = 12 }},
		{[]string{"-reserved", "3"}, func(p *Params) { p.Reserved = 3 }},
		{[]string{"-scale", "50"}, func(p *Params) { p.Scale = vtime.NewScale(50 * time.Millisecond) }},
		{[]string{"-seed", "99"}, func(p *Params) { p.Seed = 99 }},
		{[]string{"-policy", "cost"}, func(p *Params) { p.Policy = "cost" }},
		{[]string{"-http", "127.0.0.1:0"}, func(p *Params) { p.HTTPAddr = "127.0.0.1:0" }},
		{[]string{"-cpuprofile", "cpu.out", "-memprofile", "mem.out"}, func(*Params) {}},
	} {
		got, err := parseFlags(tc.args...)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		want := defaults
		tc.set(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v:\n got %+v\nwant %+v", tc.args, got, want)
		}
	}
}

func TestFlagsRejectUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "flink"},
		{"-workload", "pagerank"},
		{"-rate", "extreme"},
		{"-policy", "random"},
	} {
		_, err := parseFlags(args...)
		if err == nil || !strings.Contains(err.Error(), args[1]) {
			t.Errorf("%v: error = %v, want one naming %q", args, err, args[1])
		}
	}
}
