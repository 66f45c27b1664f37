package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Self-time attribution. The traced run takes a CPU profile in process
// (runtime/pprof) and folds every sample onto the package of its leaf
// function, the innermost frame after inlining. This file holds the one
// package → layer table and a decoder for the few pprof protobuf fields the
// fold needs, so no tool outside the standard library is involved.

// modulePath is the simulator's module path, the prefix of every layer
// package.
const modulePath = "symbiosched/internal/"

// layerOf maps each measured internal package to its layer. bitvec is the
// signature unit's bit-vector kernel and counts as bloom.
var layerOf = map[string]string{
	"alloc":       "alloc",
	"bitvec":      "bloom",
	"bloom":       "bloom",
	"cache":       "cache",
	"engine":      "engine",
	"experiments": "experiments",
	"graph":       "graph",
	"kernel":      "kernel",
	"monitor":     "monitor",
	"trace":       "trace",
	"workload":    "workload",
}

// unmeasured lists the internal packages the benchmark deliberately gives
// no layer: virt (no workload virtualizes), coordctl (the distributed
// coordinator; every workload runs in one process) and metrics (report
// formatting). Any samples they draw land in "other".
var unmeasured = []string{"coordctl", "metrics", "virt"}

// layers is the report order of the self-time layers; their fractions sum
// to 1.
var layers = []string{"workload", "trace", "cache", "engine", "bloom", "kernel",
	"monitor", "alloc", "graph", "experiments", "runtime", "other"}

// layerFor returns the layer a package's self time belongs to: the table
// for internal packages, runtime for the Go runtime, other for the rest of
// the standard library, the benchmark itself and anything unmeasured.
func layerFor(pkg string) string {
	if name, ok := strings.CutPrefix(pkg, modulePath); ok {
		if l, ok := layerOf[name]; ok {
			return l
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// funcPackage returns the import path of a symbol name such as
// "symbiosched/internal/cache.(*Cache).AccessFast": everything up to the
// first dot after the last slash, ignoring type arguments.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation: the brackets may hold other paths
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// selfTime is a folded profile: sampled CPU nanoseconds per leaf package.
type selfTime struct {
	byPackage map[string]float64
	total     float64
}

// fractions returns each layer's share of the profile; every layer is
// present and the shares sum to 1 (all 0 for an empty profile).
func (s selfTime) fractions() map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	if s.total == 0 {
		return out
	}
	for pkg, v := range s.byPackage {
		out[layerFor(pkg)] += v / s.total
	}
	return out
}

// top returns the n packages with the most self time, for the diagnostic
// line the traced run prints.
func (s selfTime) top(n int) string {
	pkgs := make([]string, 0, len(s.byPackage))
	for p := range s.byPackage {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return s.byPackage[pkgs[i]] > s.byPackage[pkgs[j]] })
	if len(pkgs) > n {
		pkgs = pkgs[:n]
	}
	parts := make([]string, len(pkgs))
	for i, p := range pkgs {
		parts[i] = fmt.Sprintf("%s %.1f%%", p, 100*ratio(s.byPackage[p], s.total))
	}
	return strings.Join(parts, ", ")
}

// foldProfile decodes a gzip-compressed pprof profile and sums each sample's
// last value (CPU nanoseconds for a CPU profile) by leaf package.
func foldProfile(data []byte) (selfTime, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return selfTime{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return selfTime{}, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leafLoc uint64
		value   int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}  // function id → string table index
		locFunc  = map[uint64]uint64{} // location id → innermost function id
	)
	// Profile fields: 2 sample, 4 location, 5 function, 6 string_table.
	err = eachField(raw, func(num, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: 1 location_id (leaf first), 2 value
			var s sample
			first := true
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := varints(wt, v, b)
					if err != nil {
						return err
					}
					if first && len(ids) > 0 {
						s.leafLoc, first = ids[0], false
					}
				case 2:
					vals, err := varints(wt, v, b)
					if err != nil {
						return err
					}
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location: 1 id, 4 line (first entry is the innermost inlined function)
			var id, fn uint64
			seen := false
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if seen {
						return nil
					}
					seen = true
					return eachField(b, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if seen {
				locFunc[id] = fn
			}
			return err
		case 5: // Function: 1 id, 2 name
			var id uint64
			var name int64
			err := eachField(b, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return selfTime{}, err
	}
	st := selfTime{byPackage: map[string]float64{}}
	for _, s := range samples {
		pkg := "unknown"
		if fn, ok := locFunc[s.leafLoc]; ok {
			if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
				pkg = funcPackage(strs[i])
			}
		}
		st.byPackage[pkg] += float64(s.value)
		st.total += float64(s.value)
	}
	return st, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the top-level fields of one protobuf message, passing
// varint and fixed values as v and length-delimited payloads as b.
func eachField(buf []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field in either encoding: one varint
// (wire type 0) or a packed run (wire type 2).
func varints(wt int, v uint64, b []byte) ([]uint64, error) {
	if wt == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
