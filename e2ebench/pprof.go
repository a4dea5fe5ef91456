package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerCPU charges the CPU time of a gzipped pprof CPU profile to
// "<phase>.<layer>" keys, in seconds. A sample's phase is its "phase"
// label, or defaultPhase when it has none (the runtime's background GC
// workers never carry labels, which is why each phase gets a profile of
// its own). Its layer is the package of its innermost
// farm/internal/<pkg> frame, with packages outside cpuLayers folded into
// "other"; a sample with no such frame is "gc" when it is garbage
// collector work and "other" otherwise.
//
// Only the standard library is used: the profile.proto fields the
// aggregation needs are decoded by hand.
func layerCPU(gz []byte, defaultPhase string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, vt := range p.sampleTypes {
		if p.str(vt[0]) == "cpu" && p.str(vt[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("no cpu/nanoseconds sample type")
	}
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			return nil, errors.New("sample without a cpu value")
		}
		phase := defaultPhase
		for _, l := range s.labels {
			if p.str(l[0]) == "phase" {
				phase = p.str(l[1])
			}
		}
		layer := p.layer(s.locations)
		if !known[layer] {
			layer = "other"
		}
		out[phase+"."+layer] += float64(s.values[cpu]) / 1e9
	}
	return out, nil
}

// layer names the package a stack is charged to; locations are leaf
// first, and each location's lines innermost first.
func (p *profile) layer(locations []uint64) string {
	gc := false
	for _, id := range locations {
		for _, fn := range p.locations[id] {
			name := p.str(p.functions[fn])
			if rest, ok := strings.CutPrefix(name, "farm/internal/"); ok {
				return rest[:strings.IndexAny(rest+".", "./")]
			}
			gc = gc || strings.HasPrefix(name, "runtime.gc") ||
				name == "runtime.bgsweep" || name == "runtime.bgscavenge"
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// profile is the part of profile.proto that layerCPU reads.
type profile struct {
	sampleTypes [][2]int64 // (type, unit) string indexes
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type sample struct {
	locations []uint64
	values    []int64
	labels    [][2]int64 // (key, str) string indexes
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2
	sampleLabel    = 3

	labelKey = 1
	labelStr = 2

	valueTypeType = 1
	valueTypeUnit = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case profSampleType:
			var vt [2]int64
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				if num == valueTypeType || num == valueTypeUnit {
					vt[num-1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
			return err
		case profSample:
			var s sample
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case sampleLocation:
					return repeated(v, sub, func(x uint64) { s.locations = append(s.locations, x) })
				case sampleValue:
					return repeated(v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				case sampleLabel:
					var l [2]int64
					err := eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == labelKey || num == labelStr {
							l[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes
// (sub is nil for varints). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, sub); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("profile: truncated fixed field")
			}
			b = b[w:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// repeated handles a repeated varint field, which encoders may write
// packed (one length-delimited run) or as one varint per element.
func repeated(v uint64, packed []byte, add func(uint64)) error {
	if packed == nil {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}

// uvarint decodes a base-128 varint, returning n <= 0 on malformed input.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
