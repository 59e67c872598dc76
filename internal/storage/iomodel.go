package storage

// The I/O model counts page-granular storage access the way the paper
// measured it on PostgreSQL (DESIGN.md §3): sequential scans touch
// each page once, point lookups touch few pages, and unclustered index
// scans touch pages repeatedly and thrash the buffer pool. A simulated
// page access only updates counters (IOStats) and the pool's LRU
// order; it does no work that would show up as wall-clock I/O time.
//
// This simulated bufferPool is distinct from the real PageCache
// (pagecache.go): the bufferPool models the cost of the *workload
// under analysis* and never moves bytes, while the PageCache manages
// actual heap residency of row pages for registered databases. They
// share the page geometry (PageRows) so one rowPage is both the cost
// unit and the spill frame.

const (
	// PageRows is the number of row slots per simulated page.
	PageRows = 128
	// DefaultBufferPages is the default buffer-pool capacity in pages.
	DefaultBufferPages = 64
)

// IOStats counts simulated I/O activity for one table.
type IOStats struct {
	PageReads int64 // buffer-pool misses (simulated page reads)
	CacheHits int64
}

// bufferPool is a tiny LRU cache of page ids, approximating a DBMS
// buffer pool. Not safe for concurrent use; each Table owns one and
// the engine is single-threaded per query, like a single backend.
type bufferPool struct {
	cap   int
	pages map[int64]int // page id -> slot in order
	order []int64       // LRU order, most recent last
	stats IOStats
}

func newBufferPool(capPages int) *bufferPool {
	if capPages <= 0 {
		capPages = DefaultBufferPages
	}
	return &bufferPool{cap: capPages, pages: make(map[int64]int)}
}

// touch simulates accessing the given page: an LRU hit counts a cache
// hit, a miss counts a page read and evicts the least recently used
// page.
func (bp *bufferPool) touch(page int64) {
	if _, ok := bp.pages[page]; ok {
		bp.stats.CacheHits++
		bp.promote(page)
		return
	}
	bp.stats.PageReads++
	if len(bp.order) >= bp.cap {
		victim := bp.order[0]
		bp.order = bp.order[1:]
		delete(bp.pages, victim)
	}
	bp.order = append(bp.order, page)
	bp.pages[page] = len(bp.order) - 1
}

func (bp *bufferPool) promote(page int64) {
	for i, p := range bp.order {
		if p == page {
			bp.order = append(bp.order[:i], bp.order[i+1:]...)
			bp.order = append(bp.order, page)
			return
		}
	}
}

// reset drops all cached pages and zeroes the stats.
func (bp *bufferPool) reset() {
	bp.pages = make(map[int64]int)
	bp.order = bp.order[:0]
	bp.stats = IOStats{}
}
