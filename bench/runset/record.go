// Package runset holds the benchmark's run record — one JSON object per
// run, stamped with the host and commit it ran on and carrying every raw
// sample — and the order statistics the benchmark and the compare command
// summarise samples with.
package runset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// Host identifies where a run was taken.
type Host struct {
	Hostname string `json:"hostname"`
	CPU      string `json:"cpu"`
	NProc    int    `json:"nproc"`
	// GOMAXPROCS is the value the measured processes ran with.
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the checkout's `git rev-parse HEAD`, or "unknown".
	Commit string `json:"commit"`
}

// Metric is one reported number: Value is what the run reports (the median
// of Samples for sampled metrics) and MAD the samples' median absolute
// deviation.
type Metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	MAD     float64   `json:"mad"`
	Samples []float64 `json:"samples,omitempty"`
}

// Record is one run of one workload.
type Record struct {
	Workload string    `json:"workload"`
	Size     string    `json:"size"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    bool      `json:"trace"`
	Start    time.Time `json:"start"`
	Host     Host      `json:"host"`
	// Reps counts the measured repetitions (CLI child processes, or serve
	// passes).
	Reps      int      `json:"reps"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`

	Metrics map[string]Metric `json:"metrics"`
}

// Baseline is the committed form of two agreement run sets of one commit.
type Baseline struct {
	SetA []Record `json:"set_a"`
	SetB []Record `json:"set_b"`
}

// Load reads a run set: a file of JSON records one per line (as the
// benchmark's -out flag appends them), or "path:set_a" / "path:set_b" to
// select one set of a Baseline file.
func Load(spec string) ([]Record, error) {
	path, set := spec, ""
	if i := strings.LastIndex(spec, ":"); i > 0 && strings.HasPrefix(spec[i+1:], "set_") {
		path, set = spec[:i], spec[i+1:]
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if set != "" {
		var b Baseline
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		switch set {
		case "set_a":
			return b.SetA, nil
		case "set_b":
			return b.SetB, nil
		}
		return nil, fmt.Errorf("%s: no run set %q (want set_a or set_b)", path, set)
	}
	var out []Record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Append writes r as one line to the run-set file at path.
func Append(path string, r Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
