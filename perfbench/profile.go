package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the per-layer self-time buckets: the simulator's packages by
// their last path element (routing/dsr is "dsr", routing/aodv is "aodv"),
// plus "runtime" for the Go runtime (GC, malloc, maps).
var layers = []string{
	"sim", "phy", "propagation", "mobility", "mac", "odpm", "dsr", "aodv",
	"energy", "trace", "scenario", "experiments", "serve", "runtime",
}

// layerOf maps a profiled function name such as
// "rcast/internal/phy.(*Channel).Transmit" to its layer, or "" when the
// function belongs to none of the layers.
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "rcast/internal/routing/dsr":
		return "dsr"
	case pkg == "rcast/internal/routing/aodv":
		return "aodv"
	case strings.HasPrefix(pkg, "rcast/internal/"):
		name := strings.TrimPrefix(pkg, "rcast/internal/")
		for _, l := range layers {
			if l == name {
				return l
			}
		}
	}
	return ""
}

// foldSelf decodes gzipped pprof CPU profiles and returns each layer's
// share of all their sampled CPU time, and the share charged to no layer.
// A sample is charged by chargeLayer. Layers without samples map to 0.
func foldSelf(profiles [][]byte) (shares map[string]float64, unattributed float64, err error) {
	shares = make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
	}
	var total float64
	for _, p := range profiles {
		stacks, err := sampleStacks(p)
		if err != nil {
			return nil, 0, err
		}
		for _, st := range stacks {
			total += float64(st.cost)
			if l := chargeLayer(st.frames); l != "" {
				shares[l] += float64(st.cost)
			} else {
				unattributed += float64(st.cost)
			}
		}
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
		unattributed /= total
	}
	return shares, unattributed, nil
}

// chargeLayer picks the layer a sample's CPU time is charged to, given
// its frames innermost first. A leaf in the Go runtime is charged to
// "runtime". Any other leaf is charged to the innermost frame that belongs
// to a simulator layer, so a standard-library call such as math.Pow in
// propagation, or sort in dsr, counts as its caller's self time. A sample
// with no layer frame (the benchmark's own code, HTTP plumbing outside
// serve) is charged to none.
func chargeLayer(frames []string) string {
	if len(frames) == 0 {
		return ""
	}
	if layerOf(frames[0]) == "runtime" {
		return "runtime"
	}
	for _, fn := range frames {
		if l := layerOf(fn); l != "" && l != "runtime" {
			return l
		}
	}
	return ""
}

// stack is one profile sample: its frames, innermost first, and its CPU
// time.
type stack struct {
	frames []string
	cost   int64
}

// sampleStacks decodes one gzipped pprof CPU profile into its samples.
func sampleStacks(profile []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		cost int64
	}
	var (
		strs     []string
		samples  []sample
		funcName = map[uint64]int64{}    // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost inlined frame first
	)
	err = protoFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			if err := protoFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				samples = append(samples, sample{locs, int64(vals[len(vals)-1])})
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := protoFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := protoFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, len(samples))
	for i, sm := range samples {
		out[i].cost = sm.cost
		for _, loc := range sm.locs {
			for _, fn := range locFuncs[loc] {
				name := ""
				if idx := funcName[fn]; idx >= 0 && int(idx) < len(strs) {
					name = strs[idx]
				}
				out[i].frames = append(out[i].frames, name)
			}
		}
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// protoFields walks the fields of one protobuf message, calling fn with
// each field number and either its varint value or its length-delimited
// bytes. Fixed-width fields are skipped: the profile messages read here
// use none.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, whether it was
// encoded packed (data) or as a single value (v).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
