package core

// This file extracts the suite's unit of scheduling — the experiment
// group — into a shared helper. A group is the set of experiments that
// share one Run invocation (Experiment.RunKey; e.g. Figure 2 and
// Table 10 come from the same context-switch sweep), and it is the
// granularity at which the suite executes, journals, replays, and at
// which the fleet coordinator partitions work across worker daemons.
// Suite.Run, cmd/lmbench's progress planning and internal/fleet all
// derive their iteration from GroupExperiments, so "what counts as one
// unit of work" is defined exactly once.

// ExperimentGroup is one unit of suite execution: the experiments that
// share a single Run invocation, after Only filtering.
type ExperimentGroup struct {
	// Key is the group's run key (Experiment.RunKey, or the ID when
	// the experiment runs alone): the journal and replay key.
	Key string
	// IDs are the member experiment IDs that survived the Only filter,
	// in presentation order.
	IDs []string
	// Exp is the first member: the experiment whose Run function
	// executes on behalf of the whole group.
	Exp Experiment
}

// GroupExperiments folds an experiment list into its execution groups,
// applying the Only filter (nil selects all) and deduplicating shared
// RunKeys exactly the way Suite.Run iterates. The returned order is
// the deterministic suite iteration order.
func GroupExperiments(exps []Experiment, only map[string]bool) []ExperimentGroup {
	var groups []ExperimentGroup
	index := map[string]int{}
	for _, exp := range exps {
		if only != nil && !only[exp.ID] {
			continue
		}
		key := exp.RunKey
		if key == "" {
			key = exp.ID
		}
		if i, ok := index[key]; ok {
			groups[i].IDs = append(groups[i].IDs, exp.ID)
			continue
		}
		index[key] = len(groups)
		groups = append(groups, ExperimentGroup{Key: key, IDs: []string{exp.ID}, Exp: exp})
	}
	return groups
}

// WorkUnit is one schedulable unit of a multi-machine run: one
// experiment group on one machine, identified by name. Units are what
// the fleet coordinator dispatches to worker daemons; a unit's result
// is exactly what a serial Suite.Run produces for that group, so
// assembling unit results in unit order reproduces the serial database
// byte for byte.
type WorkUnit struct {
	// Seq is the unit's position in the deterministic merge order
	// (machine order × group order).
	Seq int
	// Machine is the machine's resolvable profile name.
	Machine string
	// Key is the experiment group's run key.
	Key string
	// IDs are the group's member experiment IDs (the Suite Only set a
	// worker runs).
	IDs []string
}

// UnitCache is the suite's and the fleet coordinator's hook into the
// content-addressed unit cache (internal/unitcache). Lookup returns
// the recorded outcome of one (machine, group-key) work unit from a
// previous run with identical inputs, or ok=false when the unit must
// execute; Store persists a freshly computed outcome for future runs.
// The record is exactly what the journal holds for the unit — entries,
// or a skip marker — so a cache hit merges at the same point in
// iteration order as live execution and the database stays
// byte-identical. Implementations must be safe for concurrent use
// (parallel machine workers and fleet drive loops share one cache) and
// must never return a record they cannot vouch for: corruption is a
// miss, not an error. The interface lives here so core does not import
// the cache implementation.
type UnitCache interface {
	Lookup(machine, key string) (JournalRecord, bool)
	Store(rec JournalRecord) error
}

// UnitLedger is the one path by which a run finds and records
// finished work units. It holds the run's two stores of finished
// units, the crash-safe journal and the content-addressed unit cache
// (either may be nil), and applies their policy in one place for the
// serial suite and the fleet coordinator alike.
type UnitLedger struct {
	Journal *Journal
	Cache   UnitCache
	// Mode is the run's sweep mode, which every journal record must
	// match (CheckReplayMode).
	Mode SweepMode
}

// Lookup reports how the (machine, key) unit already finished, or
// ok=false when it must execute. The journal is consulted first: it
// is this run's own ground truth, and a record from the other sweep
// mode is refused with an error. The cache comes second; a cache hit
// is journaled before it is returned, so an interrupted warm run
// resumes without consulting the cache again. A journal record is
// never stored in the cache. kind is the event that reports the unit:
// ExperimentReplayed for a journal record, ExperimentCached for a
// cache hit. A skipped record is returned as it was recorded.
func (l UnitLedger) Lookup(machine, key string) (rec JournalRecord, kind EventKind, ok bool, err error) {
	if l.Journal != nil {
		if rec, ok := l.Journal.Lookup(machine, key); ok {
			if err := CheckReplayMode(rec, l.Mode); err != nil {
				return JournalRecord{}, "", false, err
			}
			return rec, ExperimentReplayed, true, nil
		}
	}
	if l.Cache == nil {
		return JournalRecord{}, "", false, nil
	}
	rec, ok = l.Cache.Lookup(machine, key)
	if !ok {
		return JournalRecord{}, "", false, nil
	}
	if l.Journal != nil {
		if err := l.Journal.Record(rec); err != nil {
			return JournalRecord{}, "", false, err
		}
	}
	return rec, ExperimentCached, true, nil
}

// Record persists a freshly finished unit: to the journal first, then
// to the cache. A unit journaled but not yet cached is merely a cold
// cache entry for the next run. An error from either store must abort
// the run: the unit would otherwise be lost to a resume.
func (l UnitLedger) Record(rec JournalRecord) error {
	if l.Journal != nil {
		if err := l.Journal.Record(rec); err != nil {
			return err
		}
	}
	if l.Cache == nil {
		return nil
	}
	return l.Cache.Store(rec)
}

// UnitsFor enumerates the work units of running the given experiment
// groups on the named machines, in merge order.
func UnitsFor(machines []string, groups []ExperimentGroup) []WorkUnit {
	units := make([]WorkUnit, 0, len(machines)*len(groups))
	for _, m := range machines {
		for _, g := range groups {
			units = append(units, WorkUnit{
				Seq: len(units), Machine: m, Key: g.Key, IDs: g.IDs,
			})
		}
	}
	return units
}
