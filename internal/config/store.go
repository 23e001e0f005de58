package config

import (
	"fmt"
	"sync"

	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/index"
)

// Tracked couples an Image with a core.RelationStore and a maintained
// index.Live R-tree, kept in sync with the image's edit methods through the
// Watcher hooks: an AddRegion/RemoveRegion/RenameRegion/SetRegionGeometry
// call updates the document, delta-updates the relation store (only the
// touched row and column recompute) and moves the R-tree entry — no O(n²)
// resweep, no index rebuild. This is the paper's interactive annotation
// loop (§4) with an O(n) edit path.
//
// The watcher callbacks cannot reject an edit, so a failure while applying
// a delta (it cannot arise from geometry the edit methods accept, since
// they validate first — but a store fed out-of-band could diverge) is
// latched into Err and every later edit is ignored until the caller
// re-syncs.
//
// Concurrency: Tracked carries an RWMutex so many readers overlap one
// writer — the contract cardirectd relies on. Mutations must go through
// Tracked's own edit methods (AddRegion, RemoveRegion, RenameRegion,
// SetRegionGeometry, BulkAddRegions), which take the write side; document
// reads go through View, which takes the read side. The maintained
// RelationStore has its own internal lock and stays safe to query directly
// at any time. Editing the underlying Image directly remains possible (the
// watcher keeps firing) but forfeits the concurrency guarantee — it is
// only safe single-threaded, as in the seed's interactive examples.
type Tracked struct {
	mu    sync.RWMutex
	img   *Image
	store *core.RelationStore
	idx   *index.Live
	err   error
}

// Track validates the image and builds the coupled relation store and live
// index over its current regions (region ids are the store names), then
// subscribes to the image's edits. Call Close to unsubscribe.
func Track(img *Image, opt core.StoreOptions) (*Tracked, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	regions := make([]core.NamedRegion, len(img.Regions))
	for i := range img.Regions {
		regions[i] = core.NamedRegion{Name: img.Regions[i].ID, Region: img.Regions[i].Geometry()}
	}
	store, err := core.NewRelationStore(regions, opt)
	if err != nil {
		return nil, err
	}
	idx, err := index.NewLive(regions)
	if err != nil {
		return nil, err
	}
	tr := &Tracked{img: img, store: store, idx: idx}
	img.Watch(tr)
	return tr, nil
}

// Store returns the maintained relation store.
func (tr *Tracked) Store() *core.RelationStore { return tr.store }

// Index returns the maintained live R-tree index.
func (tr *Tracked) Index() *index.Live { return tr.idx }

// Image returns the tracked document.
func (tr *Tracked) Image() *Image { return tr.img }

// Err returns the first delta-application failure, or nil. A non-nil value
// means the store and index no longer reflect the image and must be rebuilt
// with a fresh Track.
func (tr *Tracked) Err() error {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.err
}

// Close unsubscribes from the image's edits; the store and index stay
// readable at their final state.
func (tr *Tracked) Close() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.img.Unwatch(tr)
}

// View runs fn with the tracked document under the read lock, so it can
// overlap other readers but never an edit. fn must not mutate the image or
// retain it past the call; any error is returned verbatim. The maintained
// store and live index may be used inside fn (their reads nest safely
// under the read lock), which is how the HTTP layer serves directional
// selections and queries against a consistent document snapshot.
func (tr *Tracked) View(fn func(img *Image) error) error {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return fn(tr.img)
}

// AddRegion is Image.AddRegion under the write lock: the document, relation
// store and live index all advance before any reader observes the new
// region. A previously latched delta failure short-circuits.
func (tr *Tracked) AddRegion(id, name, color string, g geom.Region) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	if err := tr.img.AddRegion(id, name, color, g); err != nil {
		return err
	}
	return tr.err
}

// RemoveRegion is Image.RemoveRegion under the write lock.
func (tr *Tracked) RemoveRegion(id string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	if err := tr.img.RemoveRegion(id); err != nil {
		return err
	}
	return tr.err
}

// RenameRegion is Image.RenameRegion under the write lock.
func (tr *Tracked) RenameRegion(oldID, newID string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	if err := tr.img.RenameRegion(oldID, newID); err != nil {
		return err
	}
	return tr.err
}

// SetRegionGeometry is Image.SetRegionGeometry under the write lock.
func (tr *Tracked) SetRegionGeometry(id string, g geom.Region) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	if err := tr.img.SetRegionGeometry(id, g); err != nil {
		return err
	}
	return tr.err
}

// BulkRegion is one region of a bulk ingest (Tracked.BulkAddRegions).
type BulkRegion struct {
	ID, Name, Color string
	Geometry        geom.Region
}

// BulkAddRegions ingests many regions as one edit: every region is
// validated first (empty or duplicate id, invalid geometry — the same
// checks as Image.AddRegion — leave everything unchanged), then the
// relation store advances through ONE batched recomputation
// (core.RelationStore.AddBulk) instead of per-region 2(n−1) deltas, and
// the document and R-tree follow. The document mutation is applied
// directly rather than through Image.AddRegion, so Image watchers other
// than the Tracked itself are NOT notified per region — the store and
// index are updated here, batched.
func (tr *Tracked) BulkAddRegions(regions []BulkRegion) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	if len(regions) == 0 {
		return nil
	}
	batch := make(map[string]bool, len(regions))
	named := make([]core.NamedRegion, len(regions))
	for i, r := range regions {
		if r.ID == "" {
			return fmt.Errorf("config: empty region id")
		}
		if batch[r.ID] || tr.img.FindRegion(r.ID) != nil {
			return fmt.Errorf("config: region %q: %w", r.ID, ErrDuplicateRegion)
		}
		batch[r.ID] = true
		if err := r.Geometry.Validate(); err != nil {
			return fmt.Errorf("config: region %q: %w", r.ID, err)
		}
		named[i] = core.NamedRegion{Name: r.ID, Region: r.Geometry}
	}
	// Store first: it is the only step that can still reject (e.g. zero
	// area under StoreOptions.Pct), and a rejection must leave the
	// document untouched.
	if err := tr.store.AddBulk(named); err != nil {
		return err
	}
	for _, r := range regions {
		reg := Region{ID: r.ID, Name: r.Name, Color: r.Color}
		reg.SetGeometry(r.Geometry)
		tr.img.Regions = append(tr.img.Regions, reg)
		tr.fail(tr.idx.Add(r.ID, r.Geometry))
	}
	return tr.err
}

// fail latches the first delta failure.
func (tr *Tracked) fail(err error) {
	if tr.err == nil && err != nil {
		tr.err = err
	}
}

// RegionAdded implements Watcher.
func (tr *Tracked) RegionAdded(id string, g geom.Region) {
	if tr.err != nil {
		return
	}
	if err := tr.store.Add(id, g); err != nil {
		tr.fail(fmt.Errorf("config: tracking add %q: %w", id, err))
		return
	}
	tr.fail(tr.idx.Add(id, g))
}

// RegionRemoved implements Watcher.
func (tr *Tracked) RegionRemoved(id string) {
	if tr.err != nil {
		return
	}
	if err := tr.store.Remove(id); err != nil {
		tr.fail(fmt.Errorf("config: tracking remove %q: %w", id, err))
		return
	}
	tr.fail(tr.idx.Remove(id))
}

// RegionRenamed implements Watcher.
func (tr *Tracked) RegionRenamed(oldID, newID string) {
	if tr.err != nil {
		return
	}
	if err := tr.store.Rename(oldID, newID); err != nil {
		tr.fail(fmt.Errorf("config: tracking rename %q: %w", oldID, err))
		return
	}
	tr.fail(tr.idx.Rename(oldID, newID))
}

// RegionGeometryChanged implements Watcher.
func (tr *Tracked) RegionGeometryChanged(id string, g geom.Region) {
	if tr.err != nil {
		return
	}
	if err := tr.store.SetGeometry(id, g); err != nil {
		tr.fail(fmt.Errorf("config: tracking geometry %q: %w", id, err))
		return
	}
	tr.fail(tr.idx.SetGeometry(id, g))
}
