package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSegment feeds Open a log with a valid header and an arbitrary body:
// the decoder every byte read back from disk goes through. The first open
// repairs the log; an append after it must land on a clean frame, so a
// reopen serves the repaired records plus the appended one and drops
// nothing.
func FuzzSegment(f *testing.F) {
	rec := func(key, val string) []byte {
		return appendRecord(nil, []byte(key), []byte(val))
	}
	two := append(rec("alpha", "one"), rec("beta", "two")...)
	flipped := append([]byte(nil), two...)
	flipped[4] ^= 0xff // first record's CRC
	// A CRC-valid frame whose key length runs past the frame.
	payload := binary.BigEndian.AppendUint32(nil, 1<<16)
	payload = append(payload, "kv"...)
	keyPast := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	keyPast = binary.BigEndian.AppendUint32(keyPast, crc32.Checksum(payload, castagnoli))
	keyPast = append(keyPast, payload...)

	f.Add(two)
	f.Add(two[:len(two)-3]) // torn tail
	f.Add(flipped)
	f.Add(append(rec("alpha", "one"), keyPast...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		hdr := header()
		if err := os.WriteFile(filepath.Join(dir, logName), append(hdr[:], body...), 0o644); err != nil {
			t.Fatal(err)
		}
		s := openT(t, dir)
		repaired := records(s)
		if err := s.Put([]byte("fresh"), []byte("after repair")); err != nil {
			t.Fatal(err)
		}
		closeT(t, s)
		repaired["fresh"] = "after repair"

		again := openT(t, dir)
		defer closeT(t, again)
		if st := again.Stats(); st.TornDropped != 0 || st.CorruptDropped != 0 || st.GenerationSkips != 0 {
			t.Fatalf("open after repair still dropped: torn %d, corrupt %d, generation %d",
				st.TornDropped, st.CorruptDropped, st.GenerationSkips)
		}
		if got := records(again); !reflect.DeepEqual(got, repaired) {
			t.Fatalf("open after repair served %v, want %v", got, repaired)
		}
	})
}

// records returns a store's live records.
func records(s *Store) map[string]string {
	recs := map[string]string{}
	s.Range(func(key string, val []byte) { recs[key] = string(val) })
	return recs
}

// FuzzOutcomeRecord puts arbitrary value bytes under an outcome key: the
// decoder every served outcome goes through, in the store and, once served,
// in eval's in-memory tier, which derives other budgets' outcomes from it.
// LookupOutcome must miss, or return a record whose status passes the
// predicate and that RecordOutcome encodes back to the same bytes.
func FuzzOutcomeRecord(f *testing.F) {
	valid := func(b uint8) bool { return b <= 2 } // core's Proved, Stuck, Fuelout
	f.Add([]byte{0, 0, 0, 0, 5, 'a', 'u', 't', 'o', '.'})
	f.Add([]byte{2, 0, 0, 0, 128})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{7, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, val []byte) {
		c := openCacheT(t, CacheConfig{Dir: t.TempDir(), CorpusHash: testCorpus})
		defer closeCacheT(t, c)
		k := testOutcomeKey()
		if err := c.st.Put(c.outcomeKeyBytes(k), val); err != nil {
			t.Fatal(err)
		}
		rec, ok := c.LookupOutcome(k, valid)
		if !ok {
			return
		}
		if !valid(rec.Status) {
			t.Fatalf("served status %d, which the predicate rejects", rec.Status)
		}
		// RecordOutcome skips a value the key already holds, so a record
		// appended here means its encoding differs from the stored bytes.
		c.RecordOutcome(k, rec)
		c.Flush()
		if st := c.Stats(); st.Recorded != 0 || st.Dropped != 0 {
			t.Fatalf("%q decoded to %+v, which encodes to other bytes", val, rec)
		}
	})
}
