package datagen

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"dsi/internal/schema"
	"dsi/internal/scribe"
)

// FeatureLog is the serving-time record of the features a model was
// evaluated with (§3.1): logged at serving time to avoid data leakage
// between serving and training.
type FeatureLog struct {
	RequestID int64
	Dense     map[schema.FeatureID]float32
	Sparse    map[schema.FeatureID][]int64
	// EventTime is the serving-time wall clock in Unix nanoseconds. It is
	// carried through the ETL join into partition metadata so the DPP
	// master can account event-time→trainer freshness lag. Zero means
	// unknown; every value, zero and negative included, round-trips.
	EventTime int64
}

// EventLog is the record of the recommendation's observed outcome (e.g.
// whether the user interacted with the item).
type EventLog struct {
	RequestID int64
	Engaged   bool
}

// Record tags open every Scribe payload. Both lie in 0x80–0xF7, a range
// no gob stream can start with (gob's leading message length is either
// one byte below 0x80 or a negated byte count of 0xF8 and up), so a
// payload from an older gob producer is refused on its first byte.
const (
	featureLogTag byte = 0xF1
	eventLogTag   byte = 0xE1
)

// EncodeFeatureLog serializes a feature log. Layout (varints are
// encoding/binary's zigzag Varint, counts and lengths its Uvarint):
//
//	byte     0xF1 tag
//	varint   RequestID
//	varint   EventTime
//	uvarint  nDense, then nDense × (varint id, 4-byte LE float32 bits)
//	uvarint  nSparse, then nSparse × (varint id, uvarint n, n × varint value)
//
// Dense and sparse entries are sorted by ascending ID, so a payload is a
// pure function of its record. The encoding is never larger than needed:
// the buffer is sized exactly before the single append pass.
func EncodeFeatureLog(f *FeatureLog) ([]byte, error) {
	keys := make([]schema.FeatureID, 0, max(len(f.Dense), len(f.Sparse)))
	size := 1 + varintLen(f.RequestID) + varintLen(f.EventTime) +
		uvarintLen(uint64(len(f.Dense))) + uvarintLen(uint64(len(f.Sparse)))
	for id := range f.Dense {
		size += varintLen(int64(id)) + 4
	}
	for id, vals := range f.Sparse {
		size += varintLen(int64(id)) + uvarintLen(uint64(len(vals)))
		for _, v := range vals {
			size += varintLen(v)
		}
	}

	buf := make([]byte, 0, size)
	buf = append(buf, featureLogTag)
	buf = binary.AppendVarint(buf, f.RequestID)
	buf = binary.AppendVarint(buf, f.EventTime)
	buf = binary.AppendUvarint(buf, uint64(len(f.Dense)))
	for _, id := range sortedKeys(keys, f.Dense) {
		buf = binary.AppendVarint(buf, int64(id))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(f.Dense[id]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(f.Sparse)))
	for _, id := range sortedKeys(keys, f.Sparse) {
		vals := f.Sparse[id]
		buf = binary.AppendVarint(buf, int64(id))
		buf = binary.AppendUvarint(buf, uint64(len(vals)))
		for _, v := range vals {
			buf = binary.AppendVarint(buf, v)
		}
	}
	return buf, nil
}

// sortedKeys refills keys with m's keys in ascending order.
func sortedKeys[V any](keys []schema.FeatureID, m map[schema.FeatureID]V) []schema.FeatureID {
	keys = keys[:0]
	for id := range m {
		keys = append(keys, id)
	}
	slices.Sort(keys)
	return keys
}

// DecodeFeatureLog parses a payload written by EncodeFeatureLog. It never
// panics on hostile bytes: every count is checked against the bytes that
// remain before anything is allocated, and a wrong tag, a non-minimal
// varint, IDs out of ascending order or trailing bytes are all refused,
// so any payload it accepts re-encodes to itself. Empty maps decode as
// nil; a zero-length sparse list decodes as an empty, non-nil slice.
func DecodeFeatureLog(data []byte) (*FeatureLog, error) {
	r := logReader{data: data}
	r.tag(featureLogTag)
	f := &FeatureLog{RequestID: r.varint(), EventTime: r.varint()}

	// A dense entry is at least 5 bytes (1-byte id, 4-byte value).
	if n := r.count(5); n > 0 {
		f.Dense = make(map[schema.FeatureID]float32, n)
		prev := int64(math.MinInt64)
		for i := 0; i < n && r.err == nil; i++ {
			id := r.featureID(&prev)
			f.Dense[id] = math.Float32frombits(r.u32())
		}
	}
	// A sparse entry is at least 2 bytes (1-byte id, 1-byte length).
	if n := r.count(2); n > 0 {
		f.Sparse = make(map[schema.FeatureID][]int64, n)
		prev := int64(math.MinInt64)
		for i := 0; i < n && r.err == nil; i++ {
			id := r.featureID(&prev)
			vals := make([]int64, r.count(1)) // a value is at least 1 byte
			for j := range vals {
				vals[j] = r.varint()
			}
			f.Sparse[id] = vals
		}
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("datagen: decode feature log: %w", err)
	}
	return f, nil
}

// EncodeEventLog serializes an event log. Layout:
//
//	byte    0xE1 tag
//	varint  RequestID (zigzag)
//	byte    Engaged: 0 or 1
func EncodeEventLog(e *EventLog) ([]byte, error) {
	buf := make([]byte, 0, 2+varintLen(e.RequestID))
	buf = append(buf, eventLogTag)
	buf = binary.AppendVarint(buf, e.RequestID)
	if e.Engaged {
		return append(buf, 1), nil
	}
	return append(buf, 0), nil
}

// DecodeEventLog parses a payload written by EncodeEventLog, refusing a
// wrong tag, a non-minimal varint, an engaged byte other than 0 or 1 and
// trailing bytes.
func DecodeEventLog(data []byte) (*EventLog, error) {
	r := logReader{data: data}
	r.tag(eventLogTag)
	id := r.varint()
	engaged := r.u8()
	if engaged > 1 {
		r.fail("engaged byte %#x is neither 0 nor 1", engaged)
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("datagen: decode event log: %w", err)
	}
	return &EventLog{RequestID: id, Engaged: engaged == 1}, nil
}

// logReader is a bounds-checked cursor over one payload. The first
// failure sticks in err and every later read returns zero, so decoders
// check once at the end instead of after every field.
type logReader struct {
	data []byte
	pos  int
	err  error
}

func (r *logReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("at byte %d: "+format, append([]any{r.pos}, args...)...)
	}
}

func (r *logReader) tag(want byte) {
	if got := r.u8(); got != want {
		r.fail("tag %#x, want %#x", got, want)
	}
}

func (r *logReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail("truncated")
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *logReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.data)-r.pos < 4 {
		r.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

// uvarint reads one minimally encoded uvarint: a multi-byte encoding
// whose last byte is zero has a shorter form and is refused.
func (r *logReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	if n > 1 && r.data[r.pos+n-1] == 0 {
		r.fail("non-minimal varint")
		return 0
	}
	r.pos += n
	return v
}

// varint reads one zigzag varint.
func (r *logReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads an element count and refuses it unless that many elements
// of at least minSize bytes each fit in the bytes remaining, so a hostile
// count can never force an allocation larger than the payload.
func (r *logReader) count(minSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if left := uint64(len(r.data) - r.pos); n > left/uint64(minSize) {
		r.fail("count %d exceeds the %d bytes remaining", n, left)
		return 0
	}
	return int(n)
}

// featureID reads one feature ID, which must fit schema.FeatureID and
// be strictly greater than *prev.
func (r *logReader) featureID(prev *int64) schema.FeatureID {
	id := r.varint()
	if r.err != nil {
		return 0
	}
	if id != int64(schema.FeatureID(id)) {
		r.fail("feature ID %d out of range", id)
		return 0
	}
	if id <= *prev {
		r.fail("feature ID %d not above %d", id, *prev)
		return 0
	}
	*prev = id
	return schema.FeatureID(id)
}

// done reports the first decode failure, or trailing bytes.
func (r *logReader) done() error {
	if r.err == nil && r.pos != len(r.data) {
		r.fail("%d trailing bytes", len(r.data)-r.pos)
	}
	return r.err
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// FeatureCategory names the Scribe category carrying a model's feature
// logs.
func FeatureCategory(model string) string { return model + "/features" }

// EventCategory names the Scribe category carrying a model's event logs.
func EventCategory(model string) string { return model + "/events" }

// ServingSimulator emits paired feature and event logs through a Scribe
// daemon, standing in for the model-serving fleet.
type ServingSimulator struct {
	Model  string
	gen    *Generator
	daemon *scribe.Daemon
	nextID int64
	// EventDropRate is the fraction of requests whose outcome event is
	// never observed (the join in ETL must tolerate these).
	EventDropRate float64
	// Now, when set, stamps each feature log's EventTime (Unix
	// nanoseconds). Tests inject a virtual clock here.
	Now func() int64
}

// NewServingSimulator returns a simulator that logs through daemon.
func NewServingSimulator(model string, gen *Generator, daemon *scribe.Daemon) *ServingSimulator {
	return &ServingSimulator{Model: model, gen: gen, daemon: daemon, nextID: 1}
}

// ServeRequests simulates n recommendation requests, logging a feature
// record for each and an event record for the non-dropped ones.
func (s *ServingSimulator) ServeRequests(n int) error {
	for i := 0; i < n; i++ {
		id := s.nextID
		s.nextID++
		sample := s.gen.Sample()
		fl := &FeatureLog{
			RequestID: id,
			Dense:     sample.DenseFeatures,
			Sparse:    sample.SparseFeatures,
		}
		if s.Now != nil {
			fl.EventTime = s.Now()
		}
		payload, err := EncodeFeatureLog(fl)
		if err != nil {
			return err
		}
		if err := s.daemon.Log(FeatureCategory(s.Model), payload); err != nil {
			return err
		}
		// Guard the drop draw so a zero drop rate consumes no rng state:
		// tests replay the generator with the same seed to rebuild ground
		// truth, which requires identical draw sequences.
		if s.EventDropRate > 0 && s.gen.rng.Float64() < s.EventDropRate {
			continue
		}
		ev := &EventLog{RequestID: id, Engaged: sample.Label > 0}
		evPayload, err := EncodeEventLog(ev)
		if err != nil {
			return err
		}
		if err := s.daemon.Log(EventCategory(s.Model), evPayload); err != nil {
			return err
		}
	}
	// A retryable flush failure (a LogDevice brown-out, an open circuit
	// breaker) is absorbed: the messages stay buffered in the daemon and
	// a later flush — or Close's drain — delivers them. Serving must not
	// fail because logging hiccuped.
	if err := s.daemon.Flush(); err != nil && !scribe.Retryable(err) {
		return err
	}
	return nil
}

// RequestsServed reports how many requests have been simulated.
func (s *ServingSimulator) RequestsServed() int64 { return s.nextID - 1 }

// Close flushes the daemon and closes both of the model's categories on
// bus, signalling end-of-stream to downstream ETL: a tailing joiner that
// drains to both tails may then finalize instead of waiting for more.
func (s *ServingSimulator) Close(bus *scribe.Bus) error {
	if err := s.daemon.DrainFlush(30 * time.Second); err != nil {
		return err
	}
	if err := bus.CloseCategory(FeatureCategory(s.Model)); err != nil {
		return err
	}
	return bus.CloseCategory(EventCategory(s.Model))
}
