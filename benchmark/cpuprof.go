package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// modules are the layers CPU self time is attributed to, named after the
// repository packages (internal/transport/rtp is "rtp") plus "gc" for the
// garbage collector's own work.
var modules = []string{
	"sim", "shard", "scenario", "topo", "wireless", "netem", "queue", "core",
	"rtp", "tcpsim", "quicsim", "cca", "video", "metrics", "obs", "gc",
}

const repoInternal = "github.com/zhuge-project/zhuge/internal/"

// funcPackage returns the import path of a symbol name as the Go runtime
// writes it, e.g. "example.com/x/rtp.(*Sender).send" -> "example.com/x/rtp".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// isGCFrame reports whether a frame belongs to the garbage collector:
// background mark and sweep workers, mark assists charged to allocating
// goroutines, and write barriers.
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") ||
		strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge") ||
		strings.HasPrefix(fn, "runtime.markroot") ||
		strings.HasPrefix(fn, "runtime.wbBuf") ||
		fn == "runtime.sweepone" ||
		fn == "runtime.(*sweepLocked).sweep"
}

// attribute names the module a sample's CPU time belongs to: "gc" when
// any frame is garbage-collector work, else the package of the innermost
// repository frame. Runtime and standard-library frames below it (memclr,
// mallocgc, map access) are charged to the repository code that called
// them. Samples with no repository frame return "".
func attribute(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "gc"
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(funcPackage(fn), repoInternal); ok {
			return path.Base(rest)
		}
	}
	return ""
}

// moduleFractions decodes a gzip-compressed pprof CPU profile and returns
// each module's share of all samples.
func moduleFractions(profile []byte) (map[string]float64, error) {
	samples, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		total += s.count
		by[attribute(s.stack)] += s.count
	}
	out := make(map[string]float64, len(modules))
	for _, m := range modules {
		if total > 0 {
			out[m] = float64(by[m]) / float64(total)
		}
	}
	return out, nil
}

// stackSample is one profile sample: function names innermost first.
type stackSample struct {
	stack []string
	count int64
}

// decodeProfile reads the subset of profile.proto a CPU profile needs:
// samples (location IDs, counts), locations (inlined function lines) and
// functions (name string indices).
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location -> function IDs, innermost first
		funcs   = map[uint64]uint64{}   // function -> name string index
		strs    []string
	)
	err = pbFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Profile.sample
			var s rawSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbRepeated(v, b, &s.locs)
				case 2:
					return pbRepeated(v, b, &s.values)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Location.line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{count: int64(s.values[0])}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				if si := funcs[fid]; si < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[si])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields walks a protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends a repeated varint field in either encoding: one
// unpacked value (data nil) or a packed run.
func pbRepeated(v uint64, data []byte, dst *[]uint64) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
