package coalloc

import "hpmvm/internal/snap"

// Snapshot/Restore implement snap.Checkpointable for the co-allocation
// policy: the per-field placement state machines, the class->state
// index (serialized as class ID -> field ID so restored entries share
// the same *fieldState as the fields table) and the intervention latch.

const (
	snapComponent = "coalloc"
	snapVersion   = 2
)

// walk is the policy's layout. Decoding resolves field ids through the
// monitor's universe.
func (p *Policy) walk(c *snap.Codec) {
	u := p.mon.Universe()
	snap.MapPtr(c, &p.fields, func(c *snap.Codec, id *int, fs *fieldState) {
		snap.Int(c, id)
		snap.Int(c, &fs.mode)
		c.Check(fs.mode == modeIdle || fs.mode == modeActive, "field mode %d is neither idle nor active", fs.mode)
		c.U64(&fs.gap)
		c.F64(&fs.baselineRate)
		snap.Int(c, &fs.activatedAt)
		c.U64(&fs.pairsAdj)
		c.U64(&fs.pairsGapped)
		snap.Int(c, &fs.reverts)
		c.U64(&fs.abMarkAdj)
		c.U64(&fs.abMarkGap)
		if c.Check(*id >= 0 && *id < len(u.Fields()), "field id %d not in universe", *id) {
			fs.field = u.Field(*id)
		}
	})
	// byClass shares its *fieldState values with the fields table, so
	// it travels as class ID → field ID and is re-pointed on decode.
	var fieldOf map[int]int
	if c.R == nil {
		fieldOf = make(map[int]int, len(p.byClass))
		for classID, fs := range p.byClass {
			fieldOf[classID] = fs.field.ID
		}
	}
	snap.Map(c, &fieldOf, snap.Pair(snap.Int[int], snap.Int[int]))
	if c.R != nil {
		p.byClass = make(map[int]*fieldState, len(fieldOf))
		for classID, fieldID := range fieldOf {
			p.byClass[classID] = p.fields[fieldID]
			c.Check(p.byClass[classID] != nil, "class %d references unknown field state %d", classID, fieldID)
		}
	}
	c.Bool(&p.intervened)
}

// Snapshot serializes the policy's mutable state.
func (p *Policy) Snapshot() snap.ComponentState {
	return snap.Encode(snapComponent, snapVersion, p.walk)
}

// Restore overwrites the policy's mutable state.
func (p *Policy) Restore(st snap.ComponentState) error {
	next := *p
	if err := snap.Decode(st, snapComponent, snapVersion, next.walk); err != nil {
		return err
	}
	*p = next
	return nil
}
