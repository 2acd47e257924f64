package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	alae "repro"
	"repro/internal/seq"
)

// Set-up is timed in repetitions: each repetition builds the store
// from its records (build_s) and loads the persisted store until a
// probe search is answered (setup_s). A block repeats them at least
// setupReps times and until setupSpan has passed; a run times one block
// before its measured loop and one after, so the medians span the run
// rather than one moment of a shared machine.
const (
	setupReps    = 3
	setupSpan    = 2 * time.Second
	setupMaxReps = 500
)

// probeLen is the length of the set-up probe: a random query over the
// workload's alphabet, so that setup_s measures the store's lazy
// set-up (domination index, sessions) rather than one query's hits.
const probeLen = 100

// store is a workload's served store with its set-up measurements.
type store struct {
	st         *alae.Store // the served store, attached to dir
	dir        string
	pristine   string // the persisted store as set up; the timed loads read it
	recs       []alae.SeqRecord
	probe      []byte
	opts       alae.SearchOptions
	builds     []float64 // NewStore seconds
	setups     []float64 // LoadStoreFile + first search seconds
	loads      []float64 // LoadStoreFile ms
	saveMS     float64   // SaveDir ms
	storeBytes int64     // persisted bytes
	residues   int       // live residues
	heapMB     float64   // live heap the served store holds after set-up
}

func records(members []member) []alae.SeqRecord {
	recs := make([]alae.SeqRecord, len(members))
	for i, m := range members {
		recs[i] = alae.SeqRecord{Name: m.name, Seq: m.seq}
	}
	return recs
}

// setupStore builds the store from members, persists it with SaveDir,
// times the first set-up block, and loads the served store from a copy
// of the persisted one (so mutations never touch what the timed loads
// read). heap_mb is taken here: the live heap the loaded, probed store
// adds, with the probe's result shed from the query cache.
func setupStore(dir string, members []member, alphabet *seq.Alphabet, seed int64, opts alae.SearchOptions) (*store, error) {
	s := &store{
		dir:      filepath.Join(dir, "store"),
		pristine: filepath.Join(dir, "pristine"),
		recs:     records(members),
		probe:    seq.RandomSeq(alphabet, probeLen, nil, rand.New(rand.NewSource(seed))),
		opts:     opts,
	}
	for _, m := range members {
		s.residues += len(m.seq)
	}
	st, err := alae.NewStore(s.recs, alae.StoreOptions{})
	if err != nil {
		return nil, fmt.Errorf("building the store: %w", err)
	}
	t := time.Now()
	if err := st.SaveDir(s.pristine); err != nil {
		return nil, fmt.Errorf("saving the store: %w", err)
	}
	s.saveMS = ms(time.Since(t))
	st = nil
	if s.storeBytes, err = dirBytes(s.pristine); err != nil {
		return nil, err
	}
	if err := s.timeBlock(); err != nil {
		return nil, err
	}
	if err := copyDir(s.pristine, s.dir); err != nil {
		return nil, err
	}
	before := liveHeap()
	if s.st, err = alae.LoadStoreFile(s.dir, alae.StoreOptions{}); err != nil {
		return nil, fmt.Errorf("loading the store: %w", err)
	}
	if _, err := s.st.Search(s.probe, opts); err != nil {
		return nil, fmt.Errorf("first search: %w", err)
	}
	s.st.ShedQueryCache(0)
	s.heapMB = float64(liveHeap()-before) / 1e6
	return s, nil
}

// liveHeap returns the live heap in bytes after a forced collection.
// The harness's own inputs (text, records, queries) are live on both
// sides of a difference of two readings, so the difference is what the
// program kept in between.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pool kept from the first
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return int64(mem.HeapAlloc)
}

// reload loads another store from the served store's directory, set up
// like the served one: probed, with an empty query cache.
func (s *store) reload() (*alae.Store, error) {
	st, err := alae.LoadStoreFile(s.dir, alae.StoreOptions{})
	if err != nil {
		return nil, fmt.Errorf("reloading the store: %w", err)
	}
	if _, err := st.Search(s.probe, s.opts); err != nil {
		return nil, fmt.Errorf("first search: %w", err)
	}
	st.ShedQueryCache(0)
	return st, nil
}

// timeBlock times one block of set-up repetitions.
func (s *store) timeBlock() error {
	start := time.Now()
	for i := 0; i < setupMaxReps && (i < setupReps || time.Since(start) < setupSpan); i++ {
		runtime.GC() // no repetition pays for an earlier one's garbage
		t := time.Now()
		if _, err := alae.NewStore(s.recs, alae.StoreOptions{}); err != nil {
			return fmt.Errorf("building the store: %w", err)
		}
		s.builds = append(s.builds, time.Since(t).Seconds())
		runtime.GC()
		t = time.Now()
		st, err := alae.LoadStoreFile(s.pristine, alae.StoreOptions{})
		if err != nil {
			return fmt.Errorf("loading the store: %w", err)
		}
		s.loads = append(s.loads, ms(time.Since(t)))
		if _, err := st.Search(s.probe, s.opts); err != nil {
			return fmt.Errorf("first search: %w", err)
		}
		s.setups = append(s.setups, time.Since(t).Seconds())
	}
	return nil
}

// finish drops the served store, times the second set-up block, and
// records the set-up metrics. Call it after the measured loop.
func (s *store) finish(o *outcome) error {
	s.st = nil
	if err := s.timeBlock(); err != nil {
		return err
	}
	o.e2e["build_s"] = median(s.builds)
	o.e2e["setup_s"] = median(s.setups)
	o.e2e["heap_mb"] = s.heapMB
	o.e2e["disk_bytes_per_residue"] = float64(s.storeBytes) / float64(s.residues)
	o.layer["storeio.save_ms"] = s.saveMS
	o.layer["storeio.load_ms"] = median(s.loads)
	o.layer["storeio.store_bytes"] = float64(s.storeBytes)
	o.notes["setup_reps"] = len(s.setups)
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("sizing %s: %w", dir, err)
	}
	return n, nil
}

// writeWatch counts the bytes written into a directory between calls
// to written: every file that appeared or changed since the last call
// counts in full (generation files are written once; the manifest is
// rewritten whole).
type writeWatch struct {
	dir  string
	seen map[string]fileStamp
}

type fileStamp struct {
	size int64
	mod  time.Time
	ino  uint64 // a rename-into-place gives the new file a new inode
}

func newWriteWatch(dir string) (*writeWatch, error) {
	w := &writeWatch{dir: dir, seen: map[string]fileStamp{}}
	_, err := w.written()
	return w, err
}

func (w *writeWatch) written() (int64, error) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return 0, err
	}
	var n int64
	seen := make(map[string]fileStamp, len(ents))
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		st := fileStamp{size: fi.Size(), mod: fi.ModTime()}
		if sys, ok := fi.Sys().(*syscall.Stat_t); ok {
			st.ino = sys.Ino
		}
		if old, ok := w.seen[e.Name()]; !ok || old != st {
			n += st.size
		}
		seen[e.Name()] = st
	}
	w.seen = seen
	return n, nil
}
