package sweepflag

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"vertical3d/internal/experiments"
	"vertical3d/internal/parallel"
	"vertical3d/internal/sweep"
	"vertical3d/internal/uarch"
)

// surface is every command's flag set: each flag name with its default as
// the -h listing prints it ("" for a zero default, which flag omits).
// Changing a name or default breaks scripts and the bench harness, which
// drive the commands by flag.
var surface = map[string]map[string]string{
	"coresim": {
		"bench": `"Gamess"`, "cpuprofile": "", "j": "", "journal-dir": "", "keep-going": "",
		"list": "", "measure": "200000", "memprofile": "", "retries": "1", "sample": "",
		"sample-error-budget": "", "sample-interval": "", "sample-unit": "", "sample-warmup": "",
		"seed": "42", "stream": "", "sweep-timeout": "", "trace-cache": "true",
		"warmup": "80000",
	},
	"m3dcli": {
		"j": "", "journal-dir": "", "keep-going": "", "quick": "", "retries": "1", "sample": "",
		"sample-error-budget": "", "sample-interval": "", "sample-unit": "", "sample-warmup": "",
		"sweep-timeout": "", "trace-cache": "true",
	},
	"m3dd": {
		"addr": `"127.0.0.1:8321"`, "cache-bytes": "268435456", "drain-timeout": "30s",
		"event-buffer": "256", "j": "", "job-dir": "", "journal-dir": "", "keep-jobs": "64",
		"max-sweeps": "2", "queue-depth": "64", "quick": "", "retries": "1",
	},
	"mcsim": {
		"bench": `"Fft"`, "cpuprofile": "", "instrs": "600000", "j": "", "journal-dir": "",
		"keep-going": "", "memprofile": "", "phases": "4", "retries": "1", "sample": "", "seed": "42",
		"stream-base": "", "sweep-timeout": "", "trace-cache": "true", "warmup": "30000",
	},
	"sramstudy":  {"compare": "true", "j": "", "journal-dir": "", "keep-going": "", "table": `"all"`},
	"thermalsim": {"grid": "20", "m3dscale": "0.76", "power": "6.4", "tsvscale": "0.9"},
}

var (
	flagLine    = regexp.MustCompile(`^  -(\S+)`)
	defaultText = regexp.MustCompile(`\(default (.*)\)$`)
)

// listing parses a command's -h output into flag name → printed default.
func listing(out string) map[string]string {
	got := map[string]string{}
	var cur string
	for _, l := range strings.Split(out, "\n") {
		if m := flagLine.FindStringSubmatch(l); m != nil {
			cur = m[1]
			got[cur] = ""
		} else if m := defaultText.FindStringSubmatch(l); m != nil && cur != "" {
			got[cur] = m[1]
		}
	}
	return got
}

// TestFlagSurface builds every command and compares the flags its -h
// listing shows against surface.
func TestFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every command")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := t.TempDir()
	if out, err := exec.Command(gobin, "build", "-o", bin+string(os.PathSeparator), "vertical3d/cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	total := 0
	for name, want := range surface {
		// -h exits 0 after printing the listing to stderr.
		out, err := exec.Command(filepath.Join(bin, name), "-h").CombinedOutput()
		if err != nil {
			t.Errorf("%s -h: %v", name, err)
			continue
		}
		got := listing(string(out))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s flags:\n got %v\nwant %v", name, got, want)
		}
		total += len(got)
	}
	if total != 67 {
		t.Errorf("%d flags across the commands, want 67", total)
	}
}

// TestEnvDecodesFlags checks that each shared flag lands in its Env field
// and that groups a command does not register keep their defaults.
func TestEnvDecodesFlags(t *testing.T) {
	defer parallel.SetDefaultWorkers(0)
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	f := Register(fs, "batch", Batch|SampleParams)
	err := fs.Parse([]string{"-j", "3", "-keep-going", "-retries", "2",
		"-sweep-timeout", "1m", "-journal-dir", "jdir", "-trace-cache=false",
		"-sample", "-sample-interval", "8000", "-sample-warmup", "500", "-sample-unit", "1000",
		"-sample-error-budget", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	env, err := f.Env()
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.Env{Workers: 3, KeepGoing: true, Retry: parallel.Retry{Attempts: 2},
		SweepTimeout: time.Minute, JournalDir: "jdir", NoTraceCache: true}
	if !reflect.DeepEqual(env, want) {
		t.Errorf("env = %+v\nwant %+v", env, want)
	}
	if got := parallel.DefaultWorkers(); got != 3 {
		t.Errorf("default workers = %d, want 3", got)
	}
	var opt experiments.RunOptions
	f.Sampling(&opt)
	if !opt.Sample || opt.SampleParams != (uarch.SampleParams{Interval: 8000, Warmup: 500, Unit: 1000}) || opt.SampleErrorBudget != -1 {
		t.Errorf("sampling = %v %+v %v", opt.Sample, opt.SampleParams, opt.SampleErrorBudget)
	}

	// A daemon-style group set: the trace cache stays on and one attempt
	// per cell, as the batch commands default to.
	fs = flag.NewFlagSet("daemon", flag.ContinueOnError)
	f = Register(fs, "daemon", Workers|Journal|Retries)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	env, err = f.Env()
	if err != nil {
		t.Fatal(err)
	}
	if env.NoTraceCache || env.Retry.Attempts != 1 {
		t.Errorf("daemon defaults = %+v", env)
	}
}
