package relational

import "hash/maphash"

// This file implements the dictionary index of string columns: the
// structure that maps a string to its code while a column is built, and
// when a live column interns a new value.
//
// The index is an open-addressing table of codes, probed linearly and
// kept at most half full. Each code's 32-bit hash is stored beside it, so
// a probe compares hashes before it compares bytes, and growth reinserts
// from the stored hashes without rehashing a string. While a vector is
// under construction, the bytes of each new distinct string are appended
// to one arena; a lookup compares a CSV field against the arena without
// converting it to a string, and seal turns the arena into one string
// that every dictionary entry is sliced from. seal also drops the index:
// a loaded column rarely interns again, and the first value interned
// after seal rebuilds it from the dictionary.

// dictSeed seeds the dictionary hash. It is random per process because
// efesd interns the strings of uploaded CSVs: under a fixed hash, an
// upload could be crafted so that every probe collides and the load turns
// quadratic. Codes are assigned in first-occurrence order, so dictionary
// order, codes, counts and every output are independent of the seed.
var dictSeed = maphash.MakeSeed()

// dictKey is a string to intern: a CSV field's bytes or a string value.
// maphash.Bytes and maphash.String agree on equal contents, so both
// kinds of key share one index.
type dictKey interface{ ~[]byte | ~string }

// minSlots is the size of the first slot table of a column.
const minSlots = 16

// dictIndex interns the strings of one column.
type dictIndex struct {
	// slots is the power-of-two probe table: code+1, or 0 for an empty
	// slot. It is nil before the first intern and after seal.
	slots []uint32 //efes:bounded two slots per distinct string value of the column at most, dropped at seal
	// hashes holds the hash of each code, parallel to the dictionary.
	hashes []uint32 //efes:bounded one entry per distinct string value of the column, dropped at seal
	// arena holds the bytes of the codes not yet in dict (those from
	// len(dict) on), in code order; ends[j] is the end offset of code
	// len(dict)+j. Both are empty once the vector is sealed.
	arena []byte //efes:bounded the bytes of the column's distinct string values, dropped at seal
	ends  []int  //efes:bounded one entry per distinct string value of the column, dropped at seal
}

// hashBytes and hashString hash a key under dictSeed; they agree on equal
// contents.
func hashBytes(b []byte) uint32  { return uint32(maphash.Bytes(dictSeed, b)) }
func hashString(s string) uint32 { return uint32(maphash.String(dictSeed, s)) }

// intern returns the dictionary code of s, adding it with count 0 when
// unseen. The caller adjusts counts.
func (v *ColumnVector) intern(s string) int32 { return internHashed(v, s, hashString(s)) }

// internHashed returns the dictionary code of k, whose hash is h, adding
// k with count 0 when unseen. The caller adjusts counts. A new code of a
// vector under construction keeps its bytes in the arena; one interned
// after seal is appended to dict as a string.
//
//efes:hot
func internHashed[K dictKey](v *ColumnVector, k K, h uint32) int32 {
	x := &v.index
	if x.slots == nil {
		v.rebuildIndex()
	}
	mask := uint32(len(x.slots) - 1)
	i := h & mask
	for ; x.slots[i] != 0; i = (i + 1) & mask {
		if c := int32(x.slots[i] - 1); x.hashes[c] == h && entryEquals(v, c, k) {
			return c
		}
	}
	c := int32(len(v.counts))
	if v.sealed {
		v.dict = append(v.dict, string(k))
	} else {
		x.arena = append(x.arena, k...)
		x.ends = append(x.ends, len(x.arena))
	}
	v.counts = append(v.counts, 0)
	x.hashes = append(x.hashes, h)
	if 2*len(x.hashes) > len(x.slots) {
		x.resize()
	} else {
		x.slots[i] = uint32(c) + 1
	}
	return c
}

// entryEquals reports whether code c spells k: codes below len(dict) are
// compared against dict, later ones against the arena.
func entryEquals[K dictKey](v *ColumnVector, c int32, k K) bool {
	if int(c) < len(v.dict) {
		return v.dict[c] == string(k)
	}
	x := &v.index
	j := int(c) - len(v.dict)
	lo := 0
	if j > 0 {
		lo = x.ends[j-1]
	}
	return string(x.arena[lo:x.ends[j]]) == string(k)
}

// rebuildIndex builds the index of a vector that has none: empty for a
// new vector, or over the dictionary of a sealed one.
func (v *ColumnVector) rebuildIndex() {
	x := &v.index
	x.hashes = make([]uint32, len(v.dict))
	for c, s := range v.dict {
		x.hashes[c] = hashString(s)
	}
	x.resize()
}

// resize allocates the smallest slot table of at least minSlots that
// keeps the load at most ½, and reinserts every code from its stored
// hash.
func (x *dictIndex) resize() {
	n := minSlots
	for n < 2*len(x.hashes) {
		n <<= 1
	}
	x.slots = make([]uint32, n)
	mask := uint32(n - 1)
	for c, h := range x.hashes {
		i := h & mask
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = uint32(c) + 1
	}
}

// sealDict moves the arena into dict, as one string that every new entry
// is sliced from, and drops the index.
func (v *ColumnVector) sealDict() {
	x := &v.index
	if len(x.ends) > 0 {
		all := string(x.arena)
		v.dict = grow(v.dict, len(x.ends))
		lo := 0
		for _, hi := range x.ends {
			v.dict = append(v.dict, all[lo:hi])
			lo = hi
		}
	}
	v.index = dictIndex{}
	v.sealed = true
}
