package core_test

// The unit policy — how a run finds and records finished work units
// across the journal and the unit cache — is asserted here, once, by
// driving core.UnitLedger exactly as Suite.Run and the fleet
// coordinator do: Lookup, and Record on a miss.

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/results"
)

// fakeCache is an in-memory core.UnitCache that counts its traffic and
// notes how many journal bytes had been written when each Store ran.
type fakeCache struct {
	recs      map[[2]string]core.JournalRecord
	journal   *core.Journal
	storeErr  error
	stored    []core.JournalRecord
	journaled []int64
}

func (c *fakeCache) Lookup(machine, key string) (core.JournalRecord, bool) {
	rec, ok := c.recs[[2]string{machine, key}]
	return rec, ok
}

func (c *fakeCache) Store(rec core.JournalRecord) error {
	if c.storeErr != nil {
		return c.storeErr
	}
	c.stored = append(c.stored, rec)
	c.journaled = append(c.journaled, c.journal.BytesWritten())
	return nil
}

func ledgerRecord(key string, v float64) core.JournalRecord {
	return core.JournalRecord{Machine: "m", Key: key, Entries: []results.Entry{{
		Benchmark: "lat_syscall", Machine: "m", Unit: "us", Scalar: v,
	}}}
}

func TestUnitLedgerPolicy(t *testing.T) {
	journaled := ledgerRecord("table7", 1)
	cached := ledgerRecord("table7", 2)
	fresh := ledgerRecord("table7", 3)
	skip := core.JournalRecord{Machine: "m", Key: "table7", Skipped: true, Err: "unsupported"}
	exhaustive := core.JournalRecord{Machine: "m", Key: "mem_hier", Entries: []results.Entry{{
		Benchmark: "lat_mem_rd", Machine: "m", Unit: "ns", Scalar: 1,
	}}}

	for _, tc := range []struct {
		name    string
		journal []core.JournalRecord // records in the journal at open
		cache   []core.JournalRecord
		mode    core.SweepMode
		// closed makes every journal write fail; storeErr every Store.
		closed   bool
		storeErr error

		key     string
		kind    core.EventKind // "" expects a miss, which is then recorded
		want    core.JournalRecord
		wantErr string
		// stored is what the cache must receive; inJournal is what a
		// reopened journal must hold for the unit (nil: nothing).
		stored    []core.JournalRecord
		inJournal *core.JournalRecord
	}{
		{
			name: "journal beats cache", journal: []core.JournalRecord{journaled},
			cache: []core.JournalRecord{cached}, key: "table7",
			kind: core.ExperimentReplayed, want: journaled, inJournal: &journaled,
		},
		{
			name: "cache hit is journaled", cache: []core.JournalRecord{cached}, key: "table7",
			kind: core.ExperimentCached, want: cached, inJournal: &cached,
		},
		{
			name: "replayed skip stays a skip", journal: []core.JournalRecord{skip},
			cache: []core.JournalRecord{cached}, key: "table7",
			kind: core.ExperimentReplayed, want: skip, inJournal: &skip,
		},
		{
			name: "cached skip stays a skip", cache: []core.JournalRecord{skip}, key: "table7",
			kind: core.ExperimentCached, want: skip, inJournal: &skip,
		},
		{
			name: "cross-mode journal refused", journal: []core.JournalRecord{exhaustive},
			mode: core.SweepAdaptive, key: "mem_hier",
			wantErr: "exhaustive-sweep results", inJournal: &exhaustive,
		},
		{
			name: "miss is journaled then stored", key: "table7",
			stored: []core.JournalRecord{fresh}, inJournal: &fresh,
		},
		{
			name: "journal write error aborts a cache hit", cache: []core.JournalRecord{cached},
			closed: true, key: "table7", wantErr: "journal write",
		},
		{
			name: "journal write error aborts a record", closed: true, key: "table7",
			wantErr: "journal write",
		},
		{
			name: "cache write error aborts a record", storeErr: errors.New("disk full"),
			key: "table7", wantErr: "disk full", inJournal: &fresh,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jnl")
			seed := openJournal(t, path)
			for _, rec := range tc.journal {
				if err := seed.Record(rec); err != nil {
					t.Fatal(err)
				}
			}
			j := openJournal(t, path)
			if tc.closed {
				_ = j.Close()
			}
			cache := &fakeCache{recs: map[[2]string]core.JournalRecord{}, journal: j, storeErr: tc.storeErr}
			for _, rec := range tc.cache {
				cache.recs[[2]string{rec.Machine, rec.Key}] = rec
			}
			ledger := core.UnitLedger{Journal: j, Cache: cache, Mode: tc.mode}

			rec, kind, found, err := ledger.Lookup("m", tc.key)
			if err == nil && !found {
				if tc.kind != "" {
					t.Fatalf("Lookup missed, want %s", tc.kind)
				}
				err = ledger.Record(fresh)
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("err = %v, want none", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
			if kind != tc.kind {
				t.Errorf("kind = %q, want %q", kind, tc.kind)
			}
			if found && !reflect.DeepEqual(rec, tc.want) {
				t.Errorf("Lookup = %+v, want %+v", rec, tc.want)
			}
			if !reflect.DeepEqual(cache.stored, tc.stored) {
				t.Errorf("cache stored %+v, want %+v", cache.stored, tc.stored)
			}
			for i, n := range cache.journaled {
				if n == 0 {
					t.Errorf("store %d ran before the unit was journaled", i)
				}
			}

			got, ok := openJournal(t, path).Lookup("m", tc.key)
			switch {
			case tc.inJournal == nil && ok:
				t.Errorf("journal holds %+v, want nothing", got)
			case tc.inJournal != nil && !ok:
				t.Errorf("journal holds nothing, want %+v", *tc.inJournal)
			case tc.inJournal != nil && !reflect.DeepEqual(got, *tc.inJournal):
				t.Errorf("journal holds %+v, want %+v", got, *tc.inJournal)
			}
		})
	}
}
