package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a CPU profile of one traced pass, kept in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// profPackages maps the prof.*_frac metrics to the package each sample's
// leaf frame must belong to.
var profPackages = []struct{ metric, pkg string }{
	{"prof.noc_frac", "repro/internal/noc"},
	{"prof.gpu_frac", "repro/internal/gpu"},
	{"prof.cache_frac", "repro/internal/cache"},
	{"prof.mem_frac", "repro/internal/mem"},
	{"prof.trace_frac", "repro/internal/trace"},
	{"prof.rng_frac", "repro/internal/rng"},
	{"prof.runtime_frac", "runtime"},
}

// stop ends the profile and attributes every sample's CPU time to the
// package of its leaf frame. It returns each package's share of the
// profile's CPU time and the nanoseconds attributed to the noc package.
func (p *cpuProfile) stop() (map[string]float64, float64, error) {
	pprof.StopCPUProfile()
	byPkg, err := leafCPUByPackage(&p.buf)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	var total float64
	for _, ns := range byPkg {
		total += ns
	}
	shares := make(map[string]float64, len(profPackages))
	for _, pp := range profPackages {
		shares[pp.metric] = ratio(byPkg[pp.pkg], total)
	}
	return shares, byPkg["repro/internal/noc"], nil
}

// leafCPUByPackage decodes a gzipped pprof CPU profile and sums each
// sample's CPU nanoseconds under the package of its leaf frame (the
// innermost function, inlined frames included). The runtime's internal
// packages count as "runtime".
func leafCPUByPackage(r io.Reader) (map[string]float64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}  // function id -> string index
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		samples  []struct {
			leaf uint64
			ns   int64
		}
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return packedVarints(v, b, func(x uint64) { locs = append(locs, x) })
				case 2:
					return packedVarints(v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, struct {
					leaf uint64
					ns   int64
				}{locs[0], vals[len(vals)-1]})
			}
		case 4: // location
			var id, leaf uint64
			seen := false
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: the first one is the innermost frame
					if seen {
						return nil
					}
					seen = true
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = leaf
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[packageOf(name)] += float64(s.ns)
	}
	return out, nil
}

// packageOf returns the import path of a symbol such as
// "repro/internal/noc.(*Network).Step".
func packageOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		sym = sym[:slash+1+dot]
	}
	if strings.HasPrefix(sym, "runtime/") || strings.HasPrefix(sym, "internal/runtime/") {
		return "runtime"
	}
	return sym
}

var errProto = errors.New("malformed protobuf")

// protoFields calls fn for every field of a protobuf message: v holds a
// varint or fixed value, b the bytes of a length-delimited field.
func protoFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
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
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// packedVarints handles a repeated varint field in either encoding: one
// value (v, b == nil) or a packed run (b).
func packedVarints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		add(x)
		b = b[n:]
	}
	return nil
}
