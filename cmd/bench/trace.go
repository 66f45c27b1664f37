package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"

	"symbiosched/internal/trace"
	"symbiosched/internal/workload"
)

// The trace I/O layer: what it costs to go from a corpus file on
// disk to the first replayed run, and how fast a full decode+replay pass
// moves, for each of the four replay paths:
//
//   - v1-compile:  varint capture, trace.Compile decodes the whole file into
//     run-length form before the first run is available — the pre-v2
//     baseline every other row is measured against.
//   - compiled:    v2 raw container read through ReadCompiled (bulk record
//     copy, no varint work).
//   - mmap:        v2 raw container through OpenCompiled — the view is a
//     reinterpreted mapping, so "open" does no decode at all.
//   - compressed:  v2 framed-flate container streamed frame by frame
//     (FrameStreamReplay), the O(frame) memory path.
//
// The fixture is synthesized deterministically (LCG) at traceMiB of
// resident run records, written once per container, and every path must
// replay the identical instruction stream: the FNV checksum over
// (skip, line) pairs plus the tail is computed on every pass and all four
// points must agree — a divergence aborts the run, so every recorded point
// is also a replay-parity check. Each point's times are open-to-first-run
// over -reps samples; throughput (Info) is resident MiB (records actually
// decoded, 16 B per memory reference) per second of the best of -reps full
// passes, so the formats are comparable even though their on-disk sizes
// differ.

// traceMiB is the fixture size in MiB of resident run records.
const traceMiB = 128

// synthTrace builds the deterministic fixture: mb MiB of 16-byte run records
// with an mcf-like reference density (skips of 0..3) over a 256 MiB-line
// region, so the varint baseline neither degenerates nor inflates.
func synthTrace(mb int) *trace.CompiledTrace {
	n := uint64(mb) << 20 / 16
	runs := make([]trace.Run, n)
	rng := uint64(0x9E3779B97F4A7C15)
	for i := range runs {
		rng = rng*6364136223846793005 + 1442695040888963407
		r := rng >> 16
		runs[i] = trace.Run{Skip: r % 4, Line: 1<<32 + r%(1<<22)}
	}
	return trace.NewCompiled(runs, 17)
}

// replayChecksum drains src for exactly instr instructions and hashes the
// stream. Replay sources pad with compute no-ops after exhaustion, so the
// caller's instruction count is the termination condition — the same
// contract the engine runs under.
func replayChecksum(src workload.RunSource, instr uint64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	var done uint64
	for done < instr {
		limit := instr - done
		if limit > 1<<20 {
			limit = 1 << 20
		}
		skipped, addr, mem := src.NextRun(int(limit))
		done += uint64(skipped)
		if mem {
			done++
			put(uint64(skipped))
			put(addr)
		}
	}
	put(done)
	return fmt.Sprintf("%016x", h.Sum64())
}

// traceOpener abstracts one replay path: open the file, surface the first
// run (openFirst), and hand back a source for the full replay pass plus a
// cleanup. Open cost and replay cost are measured on separate invocations so
// page-cache warmth is the only state they share.
type traceOpener struct {
	format string
	path   string
	open   func(path string) (workload.RunSource, func() error, error)
}

func traceOpeners(dir string) []traceOpener {
	// fromFile opens the file and decodes it into a source; the file stays
	// open until cleanup.
	fromFile := func(decode func(f *os.File) (workload.RunSource, error)) func(string) (workload.RunSource, func() error, error) {
		return func(path string) (workload.RunSource, func() error, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, nil, err
			}
			src, err := decode(f)
			if err != nil {
				f.Close()
				return nil, nil, err
			}
			return src, f.Close, nil
		}
	}
	compiled := func(read func(io.Reader) (*trace.CompiledTrace, error)) func(string) (workload.RunSource, func() error, error) {
		return fromFile(func(f *os.File) (workload.RunSource, error) {
			ct, err := read(f)
			if err != nil {
				return nil, err
			}
			return trace.NewRunReplay(ct, false, 0), nil
		})
	}
	openMmap := func(path string) (workload.RunSource, func() error, error) {
		mt, err := trace.OpenCompiled(path)
		if err != nil {
			return nil, nil, err
		}
		return trace.NewRunReplay(mt.Trace(), false, 0), mt.Close, nil
	}
	openStream := fromFile(func(f *os.File) (workload.RunSource, error) {
		return trace.NewFrameStreamReplay(f, false, 0)
	})
	return []traceOpener{
		{"v1-compile", filepath.Join(dir, "bench.trc"), compiled(trace.Compile)},
		{"compiled", filepath.Join(dir, "bench.symc"), compiled(trace.ReadCompiled)},
		{"mmap", filepath.Join(dir, "bench.symc"), openMmap},
		{"compressed", filepath.Join(dir, "bench-z.symc"), openStream},
	}
}

// runTraceBench synthesizes the fixture, writes the three containers, and
// measures every replay path. All four checksums must agree.
func runTraceBench(reps int) []Point {
	dir, err := os.MkdirTemp("", "symbiosched-tracebench-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	ct := synthTrace(traceMiB)
	writeWith := func(name string, write func(f *os.File) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			fatal(err)
		}
		if err := write(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	writeWith("bench.trc", func(f *os.File) error { return trace.WriteV1(f, ct) })
	writeWith("bench.symc", func(f *os.File) error { return trace.WriteCompiled(f, ct) })
	writeWith("bench-z.symc", func(f *os.File) error { return trace.WriteCompiledFrames(f, ct, 0, 0) })

	instr, refs := ct.Instructions(), ct.MemRefs()
	residentMiB := float64(refs*16) / (1 << 20)
	ct = nil // the benchmark reads the files, not the fixture

	var points []Point
	for _, op := range traceOpeners(dir) {
		st, err := os.Stat(op.path)
		if err != nil {
			fatal(err)
		}
		// Open-to-first-run: open, pull one run, close. One untimed warm-up
		// pass loads the page cache so all formats are measured warm.
		opens := make([]float64, 0, reps)
		for s := -1; s < reps; s++ {
			start := time.Now()
			src, cleanup, err := op.open(op.path)
			if err != nil {
				fatal(fmt.Errorf("trace %s: %w", op.format, err))
			}
			if _, _, mem := src.NextRun(1 << 20); !mem {
				fatal(fmt.Errorf("trace %s: no first run", op.format))
			}
			d := time.Since(start)
			cleanup()
			if s >= 0 {
				opens = append(opens, ms(d))
			}
		}
		pt := Point{Case: op.format}
		pt.P50, pt.P99 = percentiles(opens)
		pt.Gated = pt.P50

		// Full replay passes: the best one counts, so a page-cache hiccup
		// cannot mark a fast path slow.
		var best float64
		for s := 0; s < reps; s++ {
			src, cleanup, err := op.open(op.path)
			if err != nil {
				fatal(err)
			}
			start := time.Now()
			sum := replayChecksum(src, instr)
			secs := time.Since(start).Seconds()
			cleanup()
			if pt.Checksum == "" {
				pt.Checksum = sum
			} else if sum != pt.Checksum {
				fatal(fmt.Errorf("trace %s: replay not deterministic (%s vs %s)", op.format, sum, pt.Checksum))
			}
			best = max(best, residentMiB/secs)
		}
		pt.Info = map[string]float64{"file_mib": float64(st.Size()) / (1 << 20), "replay_mib_per_s": best}
		if len(points) > 0 && pt.Checksum != points[0].Checksum {
			fatal(fmt.Errorf("trace: %s replays a different stream than %s (%s vs %s) — do not record this build",
				pt.Case, points[0].Case, pt.Checksum, points[0].Checksum))
		}
		points = append(points, pt)
	}
	return points
}
