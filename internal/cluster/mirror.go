package cluster

import (
	"container/list"
	"time"

	"aggcache/internal/fsnet"
)

// Mirror cache defaults: capacity in whole groups, TTL per group.
const (
	defaultMirrorCapacity = 128
	defaultMirrorTTL      = 5 * time.Second
)

// mirror is the node-level hot-group cache. It stores whole peer-fetched
// groups, indexed under every member path, so an open of any file in an
// already-mirrored group is a local answer — the group-affinity payoff a
// per-file cache would forfeit. Entries expire after a TTL because
// groups evolve as the owner keeps learning; a mirror that never aged
// would pin a remote group's first observed shape forever.
//
// Hotspot motivation: consistent hashing places each path on exactly one
// owner, so a skewed workload concentrates on one peer. The mirror
// absorbs repeat opens of hot groups at the requesting node, turning a
// per-open peer hop into one hop per group per TTL window.
type mirror struct {
	capacity int
	ttl      time.Duration // <0 means entries never expire
	now      func() time.Time

	entries map[string]*list.Element // member path -> LRU element
	order   *list.List               // of *mirrorEntry, front = most recent

	hits, misses, expired, evicted uint64
}

type mirrorEntry struct {
	files  []fsnet.GroupFile
	stored time.Time
	// owner is the peer the group was fetched from, so a membership
	// change that removes the peer can purge its groups (the new owner
	// may build the group differently; serving the departed peer's
	// shape until TTL would hide the rebalance).
	owner string
}

// newMirror returns a mirror with cfg-normalized knobs, or nil when the
// mirror is disabled (capacity < 0). A nil *mirror is a valid receiver
// for get/put/stats: every operation is a no-op miss.
func newMirror(capacity int, ttl time.Duration, now func() time.Time) *mirror {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = defaultMirrorCapacity
	}
	if ttl == 0 {
		ttl = defaultMirrorTTL
	}
	return &mirror{
		capacity: capacity,
		ttl:      ttl,
		now:      now,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// get returns the mirrored group containing path — reordered so path
// leads, as the open reply demands — or ok=false on miss/expiry. The
// returned files share data slices with the mirror; callers treat them
// as read-only (the serving path only serializes them).
//
// Callers hold the node mutex; the mirror has no lock of its own.
func (m *mirror) get(path string) ([]fsnet.GroupFile, bool) { return mirrorGet(m, path) }

// getBytes is get for a path still held in a request frame; a hit on the
// group's anchor allocates nothing.
func (m *mirror) getBytes(path []byte) ([]fsnet.GroupFile, bool) { return mirrorGet(m, path) }

func mirrorGet[K string | []byte](m *mirror, path K) ([]fsnet.GroupFile, bool) {
	if m == nil {
		return nil, false
	}
	el, ok := m.entries[string(path)]
	if !ok {
		m.misses++
		return nil, false
	}
	ent := el.Value.(*mirrorEntry)
	if m.ttl >= 0 && m.now().Sub(ent.stored) > m.ttl {
		m.removeEntry(el)
		m.expired++
		m.misses++
		return nil, false
	}
	m.order.MoveToFront(el)
	m.hits++
	if ent.files[0].Path == string(path) {
		return ent.files, true
	}
	// A member open: lead with the demanded file, keep the rest in
	// arrival order.
	out := make([]fsnet.GroupFile, 0, len(ent.files))
	for _, f := range ent.files {
		if f.Path == string(path) {
			out = append(out, f)
		}
	}
	for _, f := range ent.files {
		if f.Path != string(path) {
			out = append(out, f)
		}
	}
	return out, true
}

// put mirrors a freshly fetched group under all its member paths,
// evicting least-recently-used groups beyond capacity. A member path
// already indexed for another group is re-pointed here — newest group
// wins, mirroring how the owner's own group evolves. owner records the
// peer the group came from, for purgeOwner.
func (m *mirror) put(files []fsnet.GroupFile, owner string) {
	if m == nil || len(files) == 0 {
		return
	}
	ent := &mirrorEntry{files: files, stored: m.now(), owner: owner}
	el := m.order.PushFront(ent)
	for _, f := range files {
		if old, ok := m.entries[f.Path]; ok && old != el {
			m.unindex(old, f.Path)
		}
		m.entries[f.Path] = el
	}
	for m.order.Len() > m.capacity {
		m.evicted++
		m.removeEntry(m.order.Back())
	}
}

// unindex drops one path's index entry for el, removing the whole group
// once no member still points at it.
func (m *mirror) unindex(el *list.Element, path string) {
	delete(m.entries, path)
	ent := el.Value.(*mirrorEntry)
	for _, f := range ent.files {
		if f.Path != path && m.entries[f.Path] == el {
			return // still reachable through another member
		}
	}
	m.order.Remove(el)
}

// removeEntry drops a group and every member index pointing at it.
func (m *mirror) removeEntry(el *list.Element) {
	ent := el.Value.(*mirrorEntry)
	for _, f := range ent.files {
		if m.entries[f.Path] == el {
			delete(m.entries, f.Path)
		}
	}
	m.order.Remove(el)
}

// purgeOwner drops every group fetched from owner — called when a
// membership change removes the peer, so its groups don't outlive it.
func (m *mirror) purgeOwner(owner string) {
	if m == nil {
		return
	}
	var el *list.Element
	for e := m.order.Front(); e != nil; e = el {
		el = e.Next()
		if e.Value.(*mirrorEntry).owner == owner {
			m.removeEntry(e)
		}
	}
}

// groups returns how many distinct groups are resident.
func (m *mirror) groups() int {
	if m == nil {
		return 0
	}
	return m.order.Len()
}
