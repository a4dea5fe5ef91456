package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// Hand encoders for the profile.proto fields layerCPU reads.
func pbKey(b []byte, num, wire int) []byte {
	return binary.AppendUvarint(b, uint64(num)<<3|uint64(wire))
}

func pbVarint(b []byte, num int, v uint64) []byte {
	return binary.AppendUvarint(pbKey(b, num, 0), v)
}

func pbBytes(b []byte, num int, sub []byte) []byte {
	b = binary.AppendUvarint(pbKey(b, num, 2), uint64(len(sub)))
	return append(b, sub...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var sub []byte
	for _, v := range vs {
		sub = binary.AppendUvarint(sub, v)
	}
	return pbBytes(b, num, sub)
}

// knownProfile builds a gzipped CPU profile whose per-layer totals are
// known: each case names its stack (leaf first), phase label and the
// key layerCPU must charge its CPU time to.
func knownProfile(t *testing.T) ([]byte, map[string]float64) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "phase", "setup", "run",
		"farm/internal/sim.(*Engine).Step",          // 8: function 1
		"farm/internal/core.(*Machine).applyCommit", // 9: function 2
		"runtime.mallocgc",                          // 10: function 3
		"runtime.gcBgMarkWorker",                    // 11: function 4
		"main.main",                                 // 12: function 5
		"farm/internal/loadgen.(*Generator).loop",   // 13: function 6
		"farm/internal/audit.ObjectHash",            // 14: function 7
	}
	var p []byte
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		p = pbBytes(p, profSampleType, pbVarint(pbVarint(nil, valueTypeType, vt[0]), valueTypeUnit, vt[1]))
	}
	for fn := uint64(1); fn <= 7; fn++ {
		p = pbBytes(p, profFunction, pbVarint(pbVarint(nil, functionID, fn), functionName, fn+7))
	}
	// Location id → function ids, innermost first; location 6 has audit
	// inlined into loadgen.
	locs := map[uint64][]uint64{1: {3}, 2: {2}, 3: {1}, 4: {4}, 5: {5}, 6: {7, 6}, 7: {6}}
	for id := uint64(1); id <= 7; id++ {
		loc := pbVarint(nil, locationID, id)
		for _, fn := range locs[id] {
			loc = pbBytes(loc, locationLine, pbVarint(pbVarint(nil, lineFunction, fn), 2, 42))
		}
		p = pbBytes(p, profLocation, loc)
	}
	want := map[string]float64{}
	for _, c := range []struct {
		stack  []uint64
		phase  uint64 // string index of the label value; 0 for none
		ns     uint64
		key    string
		packed bool
	}{
		{[]uint64{1, 2, 3}, 7, 10e6, "run.core", true}, // runtime leaf, charged to core
		{[]uint64{3}, 7, 20e6, "run.sim", false},       // unpacked repeated fields
		{[]uint64{4}, 0, 5e6, "setup.gc", true},        // unlabelled GC worker
		{[]uint64{5}, 6, 7e6, "setup.other", true},     // no farm frame
		{[]uint64{6, 3}, 6, 3e6, "setup.audit", true},  // innermost inlined frame
		{[]uint64{7, 3}, 7, 2e6, "run.other", true},    // farm package outside cpuLayers
		{[]uint64{1, 2, 3}, 7, 4e6, "run.core", true},  // accumulates
		{[]uint64{4}, 6, 1e6, "setup.gc", false},       // labelled GC assist stack
	} {
		var s []byte
		if c.packed {
			s = pbPacked(s, sampleLocation, c.stack...)
			s = pbPacked(s, sampleValue, 1, c.ns)
		} else {
			for _, l := range c.stack {
				s = pbVarint(s, sampleLocation, l)
			}
			s = pbVarint(pbVarint(s, sampleValue, 1), sampleValue, c.ns)
		}
		if c.phase != 0 {
			s = pbBytes(s, sampleLabel, pbVarint(pbVarint(nil, labelKey, 5), labelStr, c.phase))
		}
		p = pbBytes(p, profSample, s)
		want[c.key] += float64(c.ns) / 1e9
	}
	p = pbVarint(p, 9, 123456789) // time_nanos: a field layerCPU skips
	for _, s := range strs {
		p = pbBytes(p, profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes(), want
}

func TestLayerCPUOnKnownProfile(t *testing.T) {
	gz, want := knownProfile(t)
	got, err := layerCPU(gz, "setup")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("got keys %v, want %v", got, want)
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("%s = %v s, want %v s", k, got[k], w)
		}
	}
}

func TestLayerCPURejectsMalformedProfiles(t *testing.T) {
	gz, _ := knownProfile(t)
	if _, err := layerCPU(gz[:len(gz)/2], "run"); err == nil {
		t.Error("truncated profile accepted")
	}
	var plain bytes.Buffer
	zw := gzip.NewWriter(&plain)
	zw.Write(pbBytes(nil, profSample, []byte{0xff})) // a sample with a broken field key
	zw.Close()
	if _, err := layerCPU(plain.Bytes(), "run"); err == nil {
		t.Error("malformed sample accepted")
	}
}
