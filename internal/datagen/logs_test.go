package datagen

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"runtime"
	"testing"

	"dsi/internal/schema"
)

// featureLogEqual compares records bit-exactly: dense values by their
// float32 bits (so NaN payloads and -0 count), sparse lists by key
// presence and elements (so a zero-length list differs from a missing
// one).
func featureLogEqual(a, b *FeatureLog) bool {
	if a.RequestID != b.RequestID || a.EventTime != b.EventTime ||
		len(a.Dense) != len(b.Dense) || len(a.Sparse) != len(b.Sparse) {
		return false
	}
	for id, v := range a.Dense {
		w, ok := b.Dense[id]
		if !ok || math.Float32bits(v) != math.Float32bits(w) {
			return false
		}
	}
	for id, vals := range a.Sparse {
		got, ok := b.Sparse[id]
		if !ok || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if vals[i] != got[i] {
				return false
			}
		}
	}
	return true
}

func TestFeatureLogCodecEdgeCases(t *testing.T) {
	nan := math.Float32frombits(0x7fc00001) // a NaN with a payload bit
	negZero := float32(math.Copysign(0, -1))
	cases := map[string]*FeatureLog{
		"zero event time":     {RequestID: 1, EventTime: 0, Dense: map[schema.FeatureID]float32{1: 1}},
		"negative event time": {RequestID: 2, EventTime: -1_700_000_000_000_000_000},
		"max event time":      {RequestID: 3, EventTime: math.MaxInt64},
		"min event time":      {RequestID: math.MinInt64, EventTime: math.MinInt64},
		"extreme feature IDs": {
			RequestID: math.MaxInt64,
			Dense:     map[schema.FeatureID]float32{math.MinInt32: 1, -7: 2, 0: 3, math.MaxInt32: 4},
			Sparse:    map[schema.FeatureID][]int64{math.MinInt32: {1}, -1: {-1}, 1 << 30: {math.MaxInt64, math.MinInt64, 0}},
		},
		"NaN and negative zero": {
			RequestID: 4,
			Dense:     map[schema.FeatureID]float32{1: nan, 2: negZero, 3: float32(math.Inf(-1))},
		},
		"nil maps":   {RequestID: 5},
		"empty maps": {RequestID: 6, Dense: map[schema.FeatureID]float32{}, Sparse: map[schema.FeatureID][]int64{}},
		"zero-length sparse lists": {
			RequestID: 7,
			Sparse:    map[schema.FeatureID][]int64{3: {}, 4: nil, 5: {9}},
		},
	}
	for name, fl := range cases {
		t.Run(name, func(t *testing.T) {
			data, err := EncodeFeatureLog(fl)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) != cap(data) {
				t.Errorf("payload len %d, cap %d: the encoder must size its buffer exactly", len(data), cap(data))
			}
			got, err := DecodeFeatureLog(data)
			if err != nil {
				t.Fatal(err)
			}
			if !featureLogEqual(fl, got) {
				t.Fatalf("round trip = %+v, want %+v", got, fl)
			}
			for id, vals := range got.Sparse {
				if vals == nil {
					t.Errorf("sparse feature %d decoded as a nil list", id)
				}
			}
			again, err := EncodeFeatureLog(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("re-encode differs:\n%x\n%x", data, again)
			}
			if _, err := DecodeFeatureLog(append(data, 0)); err == nil {
				t.Fatal("trailing byte accepted")
			}
			for n := 0; n < len(data); n++ {
				if _, err := DecodeFeatureLog(data[:n]); err == nil {
					t.Fatalf("payload truncated to %d of %d bytes accepted", n, len(data))
				}
			}
		})
	}
}

func TestEventLogCodecEdgeCases(t *testing.T) {
	for _, ev := range []EventLog{{}, {RequestID: -1, Engaged: true}, {RequestID: math.MaxInt64}, {RequestID: math.MinInt64, Engaged: true}} {
		data, err := EncodeEventLog(&ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEventLog(data)
		if err != nil {
			t.Fatal(err)
		}
		if *got != ev {
			t.Fatalf("round trip = %+v, want %+v", *got, ev)
		}
		if _, err := DecodeEventLog(append(data, 0)); err == nil {
			t.Fatalf("%+v: trailing byte accepted", ev)
		}
		if _, err := DecodeEventLog(data[:len(data)-1]); err == nil {
			t.Fatalf("%+v: truncated payload accepted", ev)
		}
		if _, err := DecodeFeatureLog(data); err == nil {
			t.Fatalf("%+v: event payload decoded as a feature log", ev)
		}
	}
	bad := []byte{eventLogTag, 2, 2} // RequestID 1, engaged byte 2
	if _, err := DecodeEventLog(bad); err == nil {
		t.Fatal("engaged byte 2 accepted")
	}
}

// TestFeatureLogEncodingDeterministic pins that a payload is a pure
// function of its record, whatever order Go iterates the maps in.
func TestFeatureLogEncodingDeterministic(t *testing.T) {
	g := NewGenerator(RM1.Scale(0.01, 1, 1), 3)
	s := g.Sample()
	fl := &FeatureLog{RequestID: 1, Dense: s.DenseFeatures, Sparse: s.SparseFeatures}
	first, err := EncodeFeatureLog(fl)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		data, err := EncodeFeatureLog(fl)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, data) {
			t.Fatal("two encodings of one record differ")
		}
	}
}

// gobPayload encodes v the way producers logged records before the
// binary codec.
func gobPayload(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hugeCountFeatureLog is a feature-log header declaring 2^62 dense
// entries with nothing after it.
func hugeCountFeatureLog() []byte {
	data := []byte{featureLogTag, 2, 0} // RequestID 1, EventTime 0
	return binary.AppendUvarint(data, 1<<62)
}

func TestLogCodecRejectsMalformed(t *testing.T) {
	valid, err := EncodeFeatureLog(&FeatureLog{RequestID: 1, Dense: map[schema.FeatureID]float32{1: 1, 2: 2}})
	if err != nil {
		t.Fatal(err)
	}
	swapped := bytes.Clone(valid)
	// Entries start after tag, RequestID, EventTime and the count; swap
	// the two 5-byte dense entries so the IDs descend.
	copy(swapped[4:9], valid[9:14])
	copy(swapped[9:14], valid[4:9])
	duplicate := bytes.Clone(valid)
	duplicate[9] = duplicate[4]

	cases := map[string][]byte{
		"empty":             {},
		"garbage":           []byte("garbage"),
		"event tag":         {eventLogTag, 2, 0},
		"non-minimal count": {featureLogTag, 2, 0, 0x80, 0x00, 0},
		"descending IDs":    swapped,
		"duplicate IDs":     duplicate,
		"ID beyond int32":   append([]byte{featureLogTag, 2, 0, 1}, binary.AppendVarint(nil, 1<<40)...),
		"huge dense count":  hugeCountFeatureLog(),
		"huge sparse count": binary.AppendUvarint([]byte{featureLogTag, 2, 0, 0}, math.MaxUint64),
		"huge list length":  binary.AppendUvarint([]byte{featureLogTag, 2, 0, 0, 1, 2}, 1<<40),
		"gob-era record": gobPayload(t, &FeatureLog{
			RequestID: 1, Dense: map[schema.FeatureID]float32{1: 1}, Sparse: map[schema.FeatureID][]int64{2: {3}}, EventTime: 5,
		}),
	}
	for name, data := range cases {
		if fl, err := DecodeFeatureLog(data); err == nil {
			t.Errorf("%s: accepted as %+v", name, fl)
		}
	}
	if _, err := DecodeEventLog(gobPayload(t, &EventLog{RequestID: 1, Engaged: true})); err == nil {
		t.Error("gob-era event log accepted")
	}
	if _, err := DecodeEventLog(append([]byte{eventLogTag}, 0x80, 0x00, 1)); err == nil {
		t.Error("non-minimal event RequestID accepted")
	}
}

// TestLogDecodeRefusesHugeCountsBeforeAllocating: a header declaring
// 2^62 entries must fail on the count check, allocating no more than the
// error it returns.
func TestLogDecodeRefusesHugeCountsBeforeAllocating(t *testing.T) {
	data := hugeCountFeatureLog()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeFeatureLog(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("huge count accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
		t.Fatalf("refusing a huge count allocated %d bytes", got)
	}
}

// Allocation counts are deterministic, so the decoders' budgets are
// gated: an event log is one allocation (the record); a feature log is
// the record, two maps and one slice per sparse list.
func TestDecodeEventLogAllocBudget(t *testing.T) {
	data, err := EncodeEventLog(&EventLog{RequestID: 12345, Engaged: true})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeEventLog(data); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("DecodeEventLog: %v allocs, budget 1", allocs)
	}
}

func TestDecodeFeatureLogAllocBudget(t *testing.T) {
	g := NewGenerator(RM1.Scale(0.01, 1, 1), 9)
	s := g.Sample()
	fl := &FeatureLog{RequestID: 77, EventTime: 1, Dense: s.DenseFeatures, Sparse: s.SparseFeatures}
	if len(fl.Sparse) == 0 || len(fl.Dense) == 0 {
		t.Fatalf("sample has %d dense and %d sparse features; want both", len(fl.Dense), len(fl.Sparse))
	}
	data, err := EncodeFeatureLog(fl)
	if err != nil {
		t.Fatal(err)
	}
	// The record, plus up to four allocations per map once it outgrows
	// one slot group (header, directory, table, groups).
	const fixed = 1 + 2*4
	budget := float64(fixed + len(fl.Sparse))
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeFeatureLog(data); err != nil {
			t.Fatal(err)
		}
	}); allocs > budget {
		t.Fatalf("DecodeFeatureLog: %v allocs for %d dense and %d sparse features, budget %v",
			allocs, len(fl.Dense), len(fl.Sparse), budget)
	}
}

// FuzzFeatureLogDecode feeds hostile bytes to the feature-log decoder:
// it must return an error or a record, never panic, and any payload it
// accepts must re-encode to exactly the same bytes.
func FuzzFeatureLogDecode(f *testing.F) {
	g := NewGenerator(RM1.Scale(0.003, 1, 1), 4)
	s := g.Sample()
	valid, err := EncodeFeatureLog(&FeatureLog{RequestID: 9, EventTime: 1 << 60, Dense: s.DenseFeatures, Sparse: s.SparseFeatures})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(hugeCountFeatureLog())
	f.Add(gobPayload(f, &FeatureLog{RequestID: 9, Dense: s.DenseFeatures, Sparse: s.SparseFeatures}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := DecodeFeatureLog(data)
		if err != nil {
			return
		}
		again, err := EncodeFeatureLog(fl)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("accepted payload re-encodes differently:\n%x\n%x", data, again)
		}
	})
}

// FuzzEventLogDecode is FuzzFeatureLogDecode for event logs.
func FuzzEventLogDecode(f *testing.F) {
	valid, err := EncodeEventLog(&EventLog{RequestID: 1 << 40, Engaged: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append([]byte{eventLogTag}, binary.AppendUvarint(nil, math.MaxUint64)...))
	f.Add(gobPayload(f, &EventLog{RequestID: 3, Engaged: true}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := DecodeEventLog(data)
		if err != nil {
			return
		}
		again, err := EncodeEventLog(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("accepted payload re-encodes differently:\n%x\n%x", data, again)
		}
	})
}
