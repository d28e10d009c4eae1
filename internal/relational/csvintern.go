package relational

import (
	"sync"

	"efes/internal/faultinject"
)

// This file implements the second stage of CSV ingest: interning the
// string columns of a load on one goroutine per load, a batch behind the
// decoder (DESIGN.md §9).
//
// decodeCSV parses every field that is not a string into its vector as
// it reads the record, and copies each string field into the batch it
// fills. A full batch goes to the interner, which pushes each string
// column's fields into that column's vector in row order, one column at
// a time. Only one goroutine interns, so codes keep first-occurrence
// order, no dictionary is built twice and nothing is merged; each vector
// has one writer. The interner starts when the first batch fills: a
// table smaller than one batch is interned from its batch on the calling
// goroutine, by the same function.

const (
	// csvBatchRows is the most records a batch holds.
	csvBatchRows = 2048
	// csvBatchBytes is the field bytes at which a batch is handed over
	// before it holds csvBatchRows records, so that a few huge fields
	// cannot grow the batches past the size of the vectors they feed.
	csvBatchBytes = 1 << 20
	// csvBatches is the most batches a load allocates: one filling, one
	// queued and one being interned.
	csvBatches = 3
)

// stringBatch holds the string fields of consecutive records.
type stringBatch struct {
	rows int         // records held
	size int         // field bytes held, over all columns
	cols []*fieldRun // one per string column
}

// fieldRun holds one string column's fields of a batch: their bytes back
// to back, and where each field ends.
type fieldRun struct {
	buf  []byte //efes:bounded csvBatchBytes plus one record's fields
	ends []int  //efes:bounded csvBatchRows entries
}

// fieldRuns recycles the storage of batches from one load to the next:
// LoadDir loads table after table, and efesd upload after upload.
var fieldRuns = sync.Pool{New: func() any { return new(fieldRun) }}

// newStringBatch returns an empty batch of ncols columns, each with room
// for rows fields and bytes bytes.
func newStringBatch(ncols, rows, bytes int) *stringBatch {
	b := &stringBatch{cols: make([]*fieldRun, ncols)}
	for j := range b.cols {
		c := fieldRuns.Get().(*fieldRun)
		c.buf, c.ends = grow(c.buf[:0], bytes), grow(c.ends[:0], rows)
		b.cols[j] = c
	}
	return b
}

// sibling returns an empty batch with the capacity b has grown to.
func (b *stringBatch) sibling() *stringBatch {
	s := newStringBatch(len(b.cols), 0, 0)
	for j, c := range b.cols {
		s.cols[j].buf, s.cols[j].ends = grow(s.cols[j].buf, cap(c.buf)), grow(s.cols[j].ends, cap(c.ends))
	}
	return s
}

// add appends field to column j.
func (b *stringBatch) add(j int, field []byte) {
	c := b.cols[j]
	c.buf = append(c.buf, field...)
	c.ends = append(c.ends, len(c.buf))
	b.size += len(field)
}

// full reports whether b holds batchRows records or csvBatchBytes field
// bytes. A batch without columns is never full: it has nothing to intern.
func (b *stringBatch) full(batchRows int) bool {
	return len(b.cols) > 0 && (b.rows >= batchRows || b.size >= csvBatchBytes)
}

// reset empties b, keeping its storage.
func (b *stringBatch) reset() {
	b.rows, b.size = 0, 0
	for _, c := range b.cols {
		c.buf, c.ends = c.buf[:0], c.ends[:0]
	}
}

// release returns the storage of b to fieldRuns, except a buffer that a
// huge field grew past twice the byte limit, which is left to the
// collector rather than kept for the next load.
func (b *stringBatch) release() {
	for _, c := range b.cols {
		if cap(c.buf) <= 2*csvBatchBytes {
			fieldRuns.Put(c)
		}
	}
}

// internQueue is the interning stage of one load. The decoder owns cur
// and every write to a batch; the interner only reads the batches it
// receives, and writes the string vectors.
type internQueue struct {
	staged    []*ColumnVector
	slot      []int // per column, its index among the string columns, or -1
	strCols   []int // per string column, its index in staged
	batchRows int
	cur       *stringBatch   // the batch the decoder fills
	batches   []*stringBatch //efes:bounded csvBatches entries: every batch of the load, for release

	// work carries full batches to the interner in row order, and free
	// carries them back. Both are nil until the first batch fills.
	work chan *stringBatch
	free chan *stringBatch
	wg   sync.WaitGroup

	// The interner's failure: its error, or the value of its panic. The
	// interner writes them; the decoder reads them after wg.Wait.
	err      error
	panicked any
}

// newInternQueue returns the interning stage of a load into the staged
// vectors of t, in batches of at most batchRows records. The first batch
// is sized for est records (0 if unknown) of fieldBytes bytes a field.
func newInternQueue(t *Table, staged []*ColumnVector, batchRows, est, fieldBytes int) *internQueue {
	q := &internQueue{staged: staged, slot: make([]int, len(t.Columns)), batchRows: batchRows}
	for i, c := range t.Columns {
		q.slot[i] = -1
		if c.Type == String {
			q.slot[i] = len(q.strCols)
			q.strCols = append(q.strCols, i)
		}
	}
	rows := min(batchRows, est)
	q.cur = newStringBatch(len(q.strCols), rows, rows*fieldBytes)
	q.batches = append(q.batches, q.cur)
	return q
}

// handOver passes the full batch to the interner, starting it with the
// first, and takes an empty batch to fill: one handed back, a new one
// while fewer than csvBatches exist, or else the next one handed back.
func (q *internQueue) handOver() {
	if q.work == nil {
		q.work = make(chan *stringBatch, 1)
		q.free = make(chan *stringBatch, csvBatches) // every batch of the load fits: the interner never waits to hand one back
		q.wg.Add(1)
		go q.run()
	}
	full := q.cur
	q.work <- full
	select {
	case q.cur = <-q.free:
	default:
		if len(q.batches) < csvBatches {
			q.cur = full.sibling()
			q.batches = append(q.batches, q.cur)
			return
		}
		q.cur = <-q.free
	}
	q.cur.reset()
}

// flush passes the last batch to the interner or, when the interner
// never started, interns it on the calling goroutine.
func (q *internQueue) flush() {
	if q.cur.rows == 0 || len(q.cur.cols) == 0 {
		return
	}
	if q.work == nil {
		q.err = q.intern(q.cur)
		return
	}
	q.work <- q.cur
}

// stop closes the queue and waits for the interner, if it started, and
// releases the batches. It panics again with the value of the
// interner's panic, or returns the error interning failed with.
func (q *internQueue) stop() error {
	if q.work != nil {
		close(q.work)
		q.wg.Wait()
	}
	for _, b := range q.batches {
		b.release()
	}
	if q.panicked != nil {
		panic(q.panicked)
	}
	return q.err
}

// run is the interner. It interns each batch it receives, in order, and
// hands it back. After a failure it hands batches back without
// interning them, so the decoder never waits on it.
func (q *internQueue) run() {
	defer q.wg.Done()
	for b := range q.work {
		if q.err == nil && q.panicked == nil {
			q.err = q.internRecovered(b)
		}
		q.free <- b
	}
}

// internRecovered interns b and recovers a panic into q.panicked, which
// stop raises again on the decoder's goroutine.
func (q *internQueue) internRecovered(b *stringBatch) error {
	defer func() {
		if v := recover(); v != nil {
			q.panicked = v
		}
	}()
	return q.intern(b)
}

// intern pushes the fields of b into their string vectors, one column at
// a time, in row order.
//
//efes:hot
func (q *internQueue) intern(b *stringBatch) error {
	if err := faultinject.Fire("relational:intern"); err != nil {
		return err
	}
	for j, c := range b.cols {
		v := q.staged[q.strCols[j]]
		lo := 0
		for _, hi := range c.ends {
			v.pushField(c.buf[lo:hi])
			lo = hi
		}
	}
	return nil
}
