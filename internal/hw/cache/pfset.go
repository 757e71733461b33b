package cache

// pfSet is an open-addressed hash set of line addresses used for the
// prefetched-line attribution sets. Every L1 miss and every hit on a
// pending way does a membership test, so it replaces the generic Go map
// with linear probing over a power-of-two table and a multiply-shift
// (Fibonacci) hash: a negative lookup is typically one multiply and one
// slot inspection. Purely a host-side container; snapshot encoding
// sorts Keys(), so iteration order never leaks into simulated state.
type pfSet struct {
	keys  []uint64
	state []uint8 // slot state: pfEmpty or pfFull
	shift uint    // 64 - log2(len(keys)), for the Fibonacci hash
	n     int     // live keys
}

const (
	pfEmpty uint8 = iota
	pfFull
)

const pfMinCap = 64

func newPfSet() *pfSet {
	s := &pfSet{}
	s.init(pfMinCap)
	return s
}

func (s *pfSet) init(capacity int) {
	s.keys = make([]uint64, capacity)
	s.state = make([]uint8, capacity)
	s.shift = 64 - uint(log2(capacity))
	s.n = 0
}

// pfHash spreads line addresses across the table's top bits
// (Fibonacci hashing: multiply by 2^64/phi, take the high bits).
func pfHash(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

// Len returns the number of live keys.
func (s *pfSet) Len() int { return s.n }

// Contains reports membership.
func (s *pfSet) Contains(k uint64) bool {
	mask := uint64(len(s.keys) - 1)
	i := pfHash(k) >> s.shift
	for {
		switch s.state[i] {
		case pfEmpty:
			return false
		case pfFull:
			if s.keys[i] == k {
				return true
			}
		}
		i = (i + 1) & mask
	}
}

// Add inserts k (no-op if present).
func (s *pfSet) Add(k uint64) {
	if 2*(s.n+1) >= len(s.keys) {
		s.rehash()
	}
	mask := uint64(len(s.keys) - 1)
	i := pfHash(k) >> s.shift
	for {
		switch s.state[i] {
		case pfEmpty:
			s.keys[i] = k
			s.state[i] = pfFull
			s.n++
			return
		case pfFull:
			if s.keys[i] == k {
				return
			}
		}
		i = (i + 1) & mask
	}
}

// Delete removes k (no-op if absent), backward-shifting the rest of
// the probe cluster so no tombstones accumulate and lookup chains stay
// as short as the load factor promises.
func (s *pfSet) Delete(k uint64) {
	mask := uint64(len(s.keys) - 1)
	i := pfHash(k) >> s.shift
	for {
		if s.state[i] == pfEmpty {
			return
		}
		if s.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		if s.state[j] == pfEmpty {
			break
		}
		// The entry at j may move into the hole at i only if its home
		// slot does not lie in the cyclic range (i, j].
		home := pfHash(s.keys[j]) >> s.shift
		if ((j - home) & mask) >= ((j - i) & mask) {
			s.keys[i] = s.keys[j]
			i = j
		}
	}
	s.state[i] = pfEmpty
	s.n--
}

// Clear empties the set, shrinking a grown table back to the minimum.
func (s *pfSet) Clear() {
	if len(s.keys) > pfMinCap {
		s.init(pfMinCap)
		return
	}
	for i := range s.state {
		s.state[i] = pfEmpty
	}
	s.n = 0
}

// Keys returns the live keys in table order (callers sort).
func (s *pfSet) Keys() []uint64 {
	out := make([]uint64, 0, s.n)
	for i, st := range s.state {
		if st == pfFull {
			out = append(out, s.keys[i])
		}
	}
	return out
}

// rehash doubles the table and reinserts the live keys.
func (s *pfSet) rehash() {
	capacity := len(s.keys)
	for 4*s.n >= capacity {
		capacity *= 2
	}
	oldKeys, oldState := s.keys, s.state
	s.init(capacity)
	for i, st := range oldState {
		if st == pfFull {
			s.Add(oldKeys[i])
		}
	}
}
