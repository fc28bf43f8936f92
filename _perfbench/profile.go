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

// layers are the simulator's modules the CPU profile is split into, plus
// gc (background collection with no repository frame on its stack) and
// other (every remaining sample: the benchmark itself, other packages, idle
// runtime work).
var layers = []string{
	"experiment", "parallel", "machine", "mem", "workload", "hyper", "plan",
	"core", "apic", "virtio", "iommu", "vmx", "sim", "trace", "migrate",
	"gc", "other",
}

const repoPrefix = "repro/internal/"

// frame is one function on a sampled stack.
type frame struct{ fn, file string }

// layerOf charges a stack, leaf first, to the layer of its innermost
// repro/internal frame, so runtime work such as malloc, memclr and
// duffcopy counts against the simulator code that caused it. The plan
// layer is the compile/replay code inside hyper. A stack with no repository
// frame is gc when it runs the background collector, other otherwise.
func layerOf(stack []frame) string {
	gc := false
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f.fn, repoPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if pkg == "hyper" && (strings.HasSuffix(f.file, "/hyper/plan.go") || strings.HasSuffix(f.file, "/hyper/deliveryplan.go")) {
				return "plan"
			}
			for _, l := range layers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
		switch f.fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.forEachP":
			gc = true
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// layerShares decodes a pprof CPU profile and returns each layer's share of
// the sampled CPU time, in percent. Every layer is present, at 0 if unseen.
func layerShares(gzipped []byte) (map[string]float64, error) {
	samples, err := decodeProfile(gzipped)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, l := range layers {
		out[l] = 0
	}
	var total int64
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.value)
		total += s.value
	}
	if total == 0 {
		return nil, errors.New("profile holds no samples")
	}
	for l, v := range out {
		out[l] = 100 * v / float64(total)
	}
	return out, nil
}

type sample struct {
	stack []frame // leaf first
	value int64   // the profile's last sample value: CPU nanoseconds
}

// decodeProfile reads the subset of the pprof protobuf format (profile.proto)
// that attribution needs: samples, locations with their inline lines,
// functions and the string table.
func decodeProfile(gzipped []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gzipped))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type function struct{ name, file int64 }
	var (
		rawSamples []rawSample
		locLines   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs      = map[uint64]function{}
		strs       []string
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var f function
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if len(rs.values) == 0 {
			continue
		}
		s := sample{value: rs.values[len(rs.values)-1]}
		for _, loc := range rs.locs {
			for _, fid := range locLines[loc] {
				f := funcs[fid]
				s.stack = append(s.stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks the top-level fields of a protobuf message, passing varint
// values in v and length-delimited payloads in b.
func fields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, b []byte, yield func(uint64)) error {
	if wire == 0 {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
