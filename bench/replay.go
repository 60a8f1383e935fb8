package main

// Layer replay: single layers timed in isolation on a workload's own data,
// so a per-layer number carries no scheduling, no map function and no
// neighbouring layer's time.

import (
	"fmt"
	"path/filepath"
	"time"

	"blmr/internal/codec"
	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/mr"
	"blmr/internal/shuffle"
	"blmr/internal/sortx"
	"blmr/internal/wal"
)

const (
	replayRepeats = 3 // each replayed layer is timed this often; the median is reported
	replayRuns    = 8 // sorted runs the merge replay merges and the seal replay publishes as waves
)

// timeRepeats reports the median duration, in nanoseconds, of
// replayRepeats calls of f.
func timeRepeats(f func() error) (float64, error) {
	var ns []float64
	for range replayRepeats {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	return median(ns), nil
}

// interleave deals a sorted slice into n sorted runs with interleaved key
// ranges — the shape spill waves of one map task have.
func interleave(sorted []core.Record, n int) [][]core.Record {
	runs := make([][]core.Record, n)
	for i, rec := range sorted {
		runs[i%n] = append(runs[i%n], rec)
	}
	return runs
}

// replaySortLayers replays sort_tcp_delta's layers on its own map output:
// the map function is the identity, so one map task's output is its input
// split, partitioned.
func replaySortLayers(r *report, cfg runConfig, input []core.Record, opts exec.Options) error {
	opts.Normalize()
	split := exec.SplitMaps(input, opts.Mappers)[0].Split
	perRec := func(ns float64) float64 { return ns / float64(len(split)) }

	// sortx.ByKey over one split: pure CPU on fixed data, which also makes
	// it the host calibration figure to normalise other timings by.
	var sorted []core.Record
	ns, err := timeRepeats(func() error {
		sorted = append(sorted[:0], split...)
		sortx.ByKey(sorted)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("sortx.bykey_ns_per_rec", perRec(ns), replayRepeats)

	runs := interleave(sorted, replayRuns)
	ns, err = timeRepeats(func() error {
		srcs := make([]sortx.Run, len(runs))
		for i, run := range runs {
			srcs[i] = sortx.NewSliceRun(run)
		}
		m := sortx.NewMerger(srcs)
		got := 0
		for _, ok := m.Next(); ok; _, ok = m.Next() {
			got++
		}
		if got != len(sorted) {
			return fmt.Errorf("merge replay: %d of %d records", got, len(sorted))
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("sortx.merge_ns_per_rec", perRec(ns), replayRepeats)

	enc := codec.NewRunEncoder(nil, opts.Compression)
	ns, err = timeRepeats(func() error {
		enc.Reset(nil)
		for _, rec := range sorted {
			if err := enc.Append(rec); err != nil {
				return err
			}
		}
		return enc.Flush()
	})
	if err != nil {
		return err
	}
	r.set("codec.encode_ns_per_rec", perRec(ns), replayRepeats)
	r.set("codec.ratio", float64(enc.RawBytes())/float64(len(enc.Bytes())), 0)

	ns, err = timeRepeats(func() error {
		dec := codec.NewRunDecoderBytes(enc.Bytes(), opts.Compression)
		got := 0
		for _, ok := dec.Next(); ok; _, ok = dec.Next() {
			got++
		}
		if err := dec.Err(); err != nil {
			return err
		}
		if got != len(sorted) {
			return fmt.Errorf("decode replay: %d of %d records", got, len(sorted))
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("codec.decode_ns_per_rec", perRec(ns), replayRepeats)

	return replaySealFetch(r, cfg, sorted, opts)
}

// replaySealFetch pushes pre-sorted partitions through a TCP transport by
// hand: PublishWave seals them, then every run Runs() returns is drained —
// served, fetched, CRC-checked and decoded — on this one goroutine.
func replaySealFetch(r *report, cfg runConfig, sorted []core.Record, opts exec.Options) error {
	parts := make([][]core.Record, opts.Reducers)
	for _, rec := range sorted {
		p := core.Partition(rec.Key, opts.Reducers)
		parts[p] = append(parts[p], rec)
	}
	waves := make([][][]core.Record, replayRuns) // wave -> partition -> sorted records
	for p, part := range parts {
		for w, run := range interleave(part, replayRuns) {
			if waves[w] == nil {
				waves[w] = make([][]core.Record, opts.Reducers)
			}
			waves[w][p] = run
		}
	}

	opts.SpillDir = filepath.Join(cfg.tmp, "replay-runs")
	dir, err := mr.OpenSpillDir(opts)
	if err != nil {
		return err
	}
	defer dir.Close()
	tr, err := shuffle.New(opts.Transport, shuffle.Config{
		Maps: 1, Parts: opts.Reducers, BatchSize: opts.BatchSize, Dir: dir,
		MergeFanIn: opts.MergeFanIn, DecodeWorkers: opts.DecodeWorkers,
	})
	if err != nil {
		return err
	}
	defer tr.Close()

	t0 := time.Now()
	sink := tr.MapSink(0)
	for _, wave := range waves {
		if err := sink.PublishWave(wave, true); err != nil {
			return err
		}
	}
	if err := sink.Close(); err != nil {
		return err
	}
	sealed := time.Since(t0)

	var fetched int64
	got := 0
	t0 = time.Now()
	for p := range parts {
		src := tr.ReduceSource(p)
		runs, err := src.Runs()
		if err != nil {
			return err
		}
		for _, run := range runs {
			for _, ok := run.Next(); ok; _, ok = run.Next() {
				got++
			}
			if s, ok := run.(sortx.Source); ok && s.Err() != nil {
				return s.Err()
			}
			if c, ok := run.(interface{ Close() error }); ok {
				_ = c.Close() // read-only handle; the drain already checked Err
			}
		}
		if fb, ok := src.(interface{ FetchBytes() int64 }); ok {
			fetched += fb.FetchBytes()
		}
		_ = src.Close()
	}
	fetch := time.Since(t0)
	if got != len(sorted) {
		return fmt.Errorf("fetch replay: %d of %d records", got, len(sorted))
	}
	const mb = 1 << 20
	r.set("shuffle.seal_mb_per_s", float64(dir.SpilledBytes())/mb/sealed.Seconds(), 0)
	r.set("shuffle.fetch_mb_per_s", float64(fetched)/mb/fetch.Seconds(), 0)
	return nil
}

// replayWAL times the journal's two record shapes on fresh logs: small
// control records one at a time, and MiB-sized records like the 'a' record
// that embeds a job's whole input.
func replayWAL(r *report, cfg runConfig) error {
	small := cfg.scale(10_000)
	log, _, err := wal.Open(filepath.Join(cfg.tmp, "replay-small.wal"))
	if err != nil {
		return err
	}
	payload := make([]byte, 256)
	each := make([]float64, small)
	for i := range each {
		t0 := time.Now()
		if err := log.Append(payload); err != nil {
			log.Close()
			return err
		}
		each[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	if err := log.Close(); err != nil {
		return err
	}
	r.set("wal.append_us", median(each), small)

	big := cfg.scale(64)
	log, _, err = wal.Open(filepath.Join(cfg.tmp, "replay-big.wal"))
	if err != nil {
		return err
	}
	payload = make([]byte, 1<<20)
	t0 := time.Now()
	for range big {
		if err := log.Append(payload); err != nil {
			log.Close()
			return err
		}
	}
	d := time.Since(t0)
	if err := log.Close(); err != nil {
		return err
	}
	r.set("wal.append_mb_per_s", float64(big)/d.Seconds(), big)
	return nil
}
