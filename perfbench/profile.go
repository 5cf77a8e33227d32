package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// layers are the repository's internal packages the benchmark
// attributes host work to, plus gc for samples with no repository frame
// (garbage collection, the scheduler, and the benchmark's own harness).
var layers = []string{
	"sim", "mem", "pagetable", "mmtemplate", "snapshot", "prefetch", "sandbox",
	"osproc", "core", "faas", "cluster", "fault", "obs", "alert", "workload", "gc",
}

const repoPrefix = "repro/internal/"

// layerOf charges a stack, given innermost frame first, to the layer of
// its innermost repro/internal/<layer> frame. Runtime and standard
// library frames above it are the calling layer's work; a stack with no
// such frame is charged to gc.
func layerOf(frames []string) string {
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, repoPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
	}
	return "gc"
}

// cpuByLayer sums a CPU profile's sampled nanoseconds per layer.
func cpuByLayer(data []byte) (map[string]int64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	col := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if col < len(s.values) {
			out[layerOf(p.frames(s.locs))] += s.values[col]
		}
	}
	return out, nil
}

// memSnapshot is the cumulative sampled allocation profile, keyed by
// stack.
type memSnapshot map[[32]uintptr]runtime.MemProfileRecord

// takeMemSnapshot reads the allocation profile after a collection, so
// every allocation made so far is published in it.
func takeMemSnapshot() memSnapshot {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	snap := make(memSnapshot, n)
	for _, r := range recs[:n] {
		snap[r.Stack0] = r
	}
	return snap
}

// allocByLayer attributes the bytes allocated between two snapshots,
// un-sampled the way pprof does for a profile taken at rate bytes per
// sample.
func allocByLayer(before, after memSnapshot, rate int) map[string]float64 {
	out := map[string]float64{}
	for key, r := range after {
		b := r.AllocBytes - before[key].AllocBytes
		n := r.AllocObjects - before[key].AllocObjects
		if b <= 0 || n <= 0 {
			continue
		}
		scale := 1 / (1 - math.Exp(-float64(b)/float64(n)/float64(rate)))
		out[layerOf(stackFrames(r.Stack()))] += float64(b) * scale
	}
	return out
}

// stackFrames symbolizes a call stack, innermost first, inlined frames
// included.
func stackFrames(pcs []uintptr) []string {
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// profile is the part of a pprof protobuf the attribution reads.
type profile struct {
	sampleTypes []string
	samples     []pSample
	locFuncs    map[uint64][]uint64 // location -> function ids, innermost first
	funcNames   map[uint64]int64    // function -> string table index
	strs        []string
}

type pSample struct {
	locs   []uint64
	values []int64
}

// frames names a sample's stack, innermost first.
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locFuncs[l] {
			if i := p.funcNames[f]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

// parseProfile decodes a (possibly gzipped) pprof profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 1 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	var typeIdx []int64
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1}
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample: {location_id=1, value=2}
			var s pSample
			err := eachField(b, func(n int, v uint64, packed []byte) error {
				switch n {
				case 1:
					return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(line, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function: {id=1, name=2}
			var id uint64
			name := int64(-1)
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range typeIdx {
		if i < 0 || int(i) >= len(p.strs) {
			return nil, errors.New("profile: sample type outside string table")
		}
		p.sampleTypes = append(p.sampleTypes, p.strs[i])
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks a protobuf message, passing each field's number with
// its varint value (wire type 0) or its bytes (wire type 2).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint handles a repeated varint field in either encoding: one
// unpacked value, or a packed run of them.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
