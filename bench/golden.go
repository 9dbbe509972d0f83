package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
)

// goldenFile maps "<workload>/<size>/seed<seed>" to the run's per-design
// summary values, formatted %.6g and compared as strings.
type goldenFile map[string]map[string]string

func goldenKey(c *runConfig) string {
	return fmt.Sprintf("%s/%s/seed%d", c.workload, c.size, c.seed)
}

// checkGolden compares a run's summary with its golden entry, or with
// -update-golden records it. A seed without an entry is checked only by
// the agreement of its repetitions.
func (c *runConfig) checkGolden(res *result, got map[string]string) {
	data := embeddedGolden
	if c.golden != "" {
		var err error
		data, err = os.ReadFile(c.golden)
		if errors.Is(err, fs.ErrNotExist) && c.updateGolden {
			data, err = []byte("{}"), nil
		}
		if err != nil {
			res.problem("golden: %v", err)
			return
		}
	}
	gf := goldenFile{}
	if err := json.Unmarshal(data, &gf); err != nil {
		res.problem("golden: %v", err)
		return
	}
	key := goldenKey(c)
	if c.updateGolden {
		gf[key] = got
		out, err := json.MarshalIndent(gf, "", "  ")
		if err == nil {
			err = os.WriteFile(c.golden, append(out, '\n'), 0o644)
		}
		if err != nil {
			res.problem("golden: %v", err)
		}
		return
	}
	want, ok := gf[key]
	if !ok {
		return
	}
	names := make([]string, 0, len(want))
	for k := range want {
		names = append(names, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		if got[k] != want[k] {
			res.problem("golden %s %s: got %q, want %q", key, k, got[k], want[k])
		}
	}
}
