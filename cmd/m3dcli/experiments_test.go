package main

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsCiteResultsFull checks EXPERIMENTS.md's measured column of
// the Fig 6, 7, 9 and 10 tables, and its LP saving, against the Average
// rows and the LP line of results_full.txt, which TestResultsFullPinned
// ties to the code: a change that moves a simulated number restates the
// document with the file.
func TestExperimentsCiteResultsFull(t *testing.T) {
	res, doc := readText(t, "../../results_full.txt"), readText(t, "../../EXPERIMENTS.md")
	averages := resultAverages(res)
	for fig, heading := range map[string]string{
		"fig6": "## Figure 6", "fig7": "## Figure 7", "fig9": "## Figure 9", "fig10": "## Figure 10",
	} {
		want := averages[fig]
		if len(want) == 0 {
			t.Errorf("results_full.txt has no %s Average row", fig)
			continue
		}
		delete(want, "Base") // the normalisation baseline, 1.00 by construction
		if got := measuredColumn(doc, heading); !reflect.DeepEqual(got, want) {
			t.Errorf("EXPERIMENTS.md %q measured column:\n got %v\nwant %v (results_full.txt)", heading, got, want)
		}
	}
	lpRes := regexp.MustCompile(`Additional saving: ([0-9.]+) percentage points`).FindStringSubmatch(res)
	lpDoc := regexp.MustCompile(`saves an additional \*\*([0-9.]+)pp\*\*`).FindStringSubmatch(doc)
	if lpRes == nil || lpDoc == nil || lpRes[1] != lpDoc[1] {
		t.Errorf("LP saving: EXPERIMENTS.md %v, results_full.txt %v", lpDoc, lpRes)
	}
}

func readText(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// resultAverages maps each "== name ==" section of an m3dcli report to its
// Average row, design name → printed value, read against the section's
// Benchmark header.
func resultAverages(report string) map[string]map[string]string {
	out := map[string]map[string]string{}
	var section string
	var designs []string
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 3 && f[0] == "==" && f[2] == "==":
			section, designs = f[1], nil
		case len(f) > 1 && f[0] == "Benchmark":
			designs = f[1:]
		case len(f) == len(designs)+1 && f[0] == "Average":
			row := map[string]string{}
			for i, d := range designs {
				row[d] = f[i+1]
			}
			out[section] = row
		}
	}
	return out
}

// measuredColumn reads the "| Design | measured | paper |" table under a
// markdown heading: design name → measured value, emphasis stripped.
func measuredColumn(doc, heading string) map[string]string {
	i := strings.Index(doc, "\n"+heading)
	if i < 0 {
		return nil
	}
	body := doc[i+1+len(heading):]
	if j := strings.Index(body, "\n## "); j >= 0 {
		body = body[:j]
	}
	out := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if !strings.HasPrefix(line, "|") || len(cells) != 3 {
			continue
		}
		name, v := strings.TrimSpace(cells[0]), strings.Trim(cells[1], " *")
		if name == "Design" || strings.HasPrefix(name, "-") {
			continue
		}
		out[name] = v
	}
	return out
}
