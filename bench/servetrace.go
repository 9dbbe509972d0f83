package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"vertical3d/bench/runset"
	"vertical3d/internal/config"
	"vertical3d/internal/experiments"
	"vertical3d/internal/jobstore"
	"vertical3d/internal/journal"
	"vertical3d/internal/resultcache"
	"vertical3d/internal/tech"
	"vertical3d/internal/workload"
)

// traceServe is the serve workload's traced run: the same phases, with a
// client-side span per op split at the SSE event arrivals, /statsz read at
// each phase boundary, and then the storage layers' public calls timed on
// copies of the run's journal and job manifest.
func traceServe(c *runConfig, res *result) error {
	size, err := serveSizeFor(c.size, c.seconds)
	if err != nil {
		return err
	}
	p, e, err := servePhases(c, res, size)
	if e != nil {
		defer e.killAll()
	}
	if err != nil {
		return err
	}
	res.reps = 1
	tr := newTracer(c.workload)
	for _, ph := range p.phases() {
		opSpans(tr, res, ph.name, ph.ops)
	}
	res.spans = tr.spans
	if err := checkSpans(res.spans); err != nil {
		res.problem("spans: %v", err)
	}

	cold, hit, disk := opLatencies(p.cold), opLatencies(p.hit), opLatencies(p.disk)
	res.set("m3dd.cold_s_p50", runset.Median(cold))
	res.set("m3dd.cold_s_p90", runset.Percentile(cold, 90))
	res.set("m3dd.hit_ms_p50", runset.Median(hit)*1e3)
	res.set("m3dd.hit_ms_p99", runset.Percentile(hit, 99)*1e3)
	res.set("m3dd.disk_ms_p50", runset.Median(disk)*1e3)
	res.set("m3dd.disk_ms_p90", runset.Percentile(disk, 90)*1e3)

	res.set("resultcache.computed", float64(p.afterCold.Cache.Computed))
	res.set("resultcache.coalesced", float64(p.afterCold.Cache.Coalesced))
	res.set("resultcache.hits", float64(p.afterHit.Cache.Hits))
	res.set("resultcache.disk_hits", float64(p.afterDisk.Cache.DiskHits))
	res.set("resultcache.bytes", float64(p.afterHit.Cache.Bytes))
	res.set("jobstore.records", float64(p.afterDisk.JobStoreStats.Records))
	return probeStorage(c, res, e, p)
}

// opSpans turns a phase's ops into spans: the op, and under it the POST,
// the wait for the "running" event, the run until "done", and the GET of
// the cells.
func opSpans(tr *tracer, res *result, phase string, ops [][]opResult) {
	parts := map[string][]float64{}
	for _, list := range ops {
		for _, o := range list {
			if o.err != nil {
				continue
			}
			cell := fmt.Sprintf("%s %s seed=%d", phase, o.spec.Benchmarks[0], o.spec.Seed)
			id := tr.add(0, "m3dd.op", cell, o.sent, o.end)
			for _, part := range []struct {
				name       string
				start, end time.Time
			}{
				{"post", o.sent, o.accepted},
				{"queue", o.accepted, o.running},
				{"run", o.running, o.done},
				{"cells_get", o.done, o.end},
			} {
				tr.add(id, "m3dd."+part.name, cell, part.start, part.end)
				parts[part.name] = append(parts[part.name], part.end.Sub(part.start).Seconds()*1e3)
			}
		}
	}
	for name, xs := range parts {
		res.set(fmt.Sprintf("m3dd.%s_ms_p50.%s", name, phase), runset.Median(xs))
	}
}

// probeRepeats is how many times each storage call is timed.
const probeRepeats = 20

// probeStorage times the storage layers' public calls on copies of the
// run's journal and of the job manifest the restarts replayed, so the
// calls read what the daemon read.
func probeStorage(c *runConfig, res *result, e *serveEnv, p *servePass) error {
	jdir, cdir := filepath.Join(c.work, "probe-journal"), filepath.Join(c.work, "probe-cache")
	for _, dst := range []string{jdir, cdir} {
		if err := copyDir(e.journal, dst); err != nil {
			return err
		}
	}
	suite, err := config.Derive(tech.N22())
	if err != nil {
		return err
	}
	type cell struct {
		id  journal.Identity
		key string
	}
	var cells []cell
	for _, ops := range p.cold {
		for _, o := range ops {
			prof, err := workload.ByName(o.spec.Benchmarks[0])
			if err != nil {
				return err
			}
			// The daemon's -quick sizing for a spec with an explicit seed.
			opt := experiments.QuickRunOptions()
			opt.Seed = o.spec.Seed
			id := opt.Identity("fig6")
			for _, d := range config.SingleCoreDesigns() {
				cells = append(cells, cell{id, journal.CellKey(prof.Name, d.String(), suite.Configs[d], prof)})
			}
		}
	}
	if len(cells) == 0 {
		return fmt.Errorf("no cold cells to probe")
	}
	timeIt := func(fn func() error) (float64, error) {
		t := time.Now()
		err := fn()
		return float64(time.Since(t).Nanoseconds()), err
	}

	// journal: open an identity's segments, look a cell up, append a cell.
	var opens, lookups, records []float64
	var value experiments.AppResult
	for i := 0; i < probeRepeats; i++ {
		cl := cells[i%len(cells)]
		var jn *journal.Journal
		ns, err := timeIt(func() (err error) { jn, err = journal.Open(jdir, cl.id); return err })
		if err != nil {
			return err
		}
		opens = append(opens, ns)
		ns, err = timeIt(func() error {
			if !jn.Lookup(cl.key, &value) {
				return fmt.Errorf("journal has no cell %s", cl.key)
			}
			return nil
		})
		if err != nil {
			return err
		}
		lookups = append(lookups, ns)
		ns, err = timeIt(func() error { return jn.Record(fmt.Sprintf("probe-%d", i), value) })
		if err != nil {
			return err
		}
		records = append(records, ns)
		if err := jn.Close(); err != nil {
			return err
		}
	}
	res.set("journal.open_ms", runset.Median(opens)/1e6)
	res.set("journal.lookup_us", runset.Median(lookups)/1e3)
	res.set("journal.record_us", runset.Median(records)/1e3)

	// jobstore: replay the manifest, accept a job, move it along. Open
	// compacts, so each open gets a fresh copy.
	opens = nil
	var accepts, transitions []float64
	for i := 0; i < 3; i++ {
		qdir := filepath.Join(c.work, fmt.Sprintf("probe-jobs-%d", i))
		if err := copyDir(e.manifest, qdir); err != nil {
			return err
		}
		var st *jobstore.Store
		ns, err := timeIt(func() (err error) { st, err = jobstore.Open(qdir); return err })
		if err != nil {
			return err
		}
		opens = append(opens, ns)
		for j := 0; j < probeRepeats/3+1; j++ {
			jobID := fmt.Sprintf("probe%d-%d", i, j)
			seq := st.MaxSeq() + 1
			ns, err := timeIt(func() error { return st.Accept(jobID, seq, p.cold[0][0].spec, time.Time{}) })
			if err != nil {
				return err
			}
			accepts = append(accepts, ns)
			ns, err = timeIt(func() error { return st.Transition(jobID, jobstore.StateQueued, "") })
			if err != nil {
				return err
			}
			transitions = append(transitions, ns)
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	res.set("jobstore.open_ms", runset.Median(opens)/1e6)
	res.set("jobstore.accept_us", runset.Median(accepts)/1e3)
	res.set("jobstore.transition_us", runset.Median(transitions)/1e3)

	// resultcache: every cold cell from the disk tier, then from memory.
	rc := resultcache.New(256 << 20)
	rc.SetDiskDir(cdir)
	refuse := func() (any, error) { return nil, fmt.Errorf("probe cell missing from the journal") }
	for _, want := range []resultcache.Source{resultcache.Disk, resultcache.Memory} {
		var xs []float64
		for _, cl := range cells {
			var out experiments.AppResult
			var src resultcache.Source
			ns, err := timeIt(func() (err error) {
				src, err = rc.Do(resultcache.Key{ID: cl.id, Cell: cl.key}, &out, refuse)
				return err
			})
			if err != nil {
				return err
			}
			if src != want {
				res.problem("resultcache probe: cell served from %v, want %v", src, want)
			}
			xs = append(xs, ns)
		}
		if want == resultcache.Disk {
			res.set("resultcache.disk_hit_us", runset.Median(xs)/1e3)
		} else {
			res.set("resultcache.hit_us", runset.Median(xs)/1e3)
		}
	}

	// JSON encoding of one served cell, as the cache and journal store it.
	var enc, dec []float64
	var raw []byte
	for i := 0; i < probeRepeats; i++ {
		ns, err := timeIt(func() (err error) { raw, err = json.Marshal(value); return err })
		if err != nil {
			return err
		}
		enc = append(enc, ns)
		var back experiments.AppResult
		ns, err = timeIt(func() error { return json.Unmarshal(raw, &back) })
		if err != nil {
			return err
		}
		dec = append(dec, ns)
	}
	res.set("resultcache.encode_us", runset.Median(enc)/1e3)
	res.set("resultcache.decode_us", runset.Median(dec)/1e3)
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
