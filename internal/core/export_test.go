package core

import "hpmvm/internal/snap"

// Checkpointables exposes the system's snapshot components, by
// component name, to the external test package.
func (s *System) Checkpointables() map[string]snap.Checkpointable {
	m := make(map[string]snap.Checkpointable)
	for _, c := range s.components() {
		m[c.name] = c.c
	}
	return m
}
