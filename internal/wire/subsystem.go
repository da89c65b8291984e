package wire

import (
	"fuzzydb/internal/subsys"
)

// The remote source must present every capability face the engine
// probes for, so it composes with metering, resilience, and
// prefetch exactly like a local source.
var (
	_ subsys.Source         = (*RemoteSource)(nil)
	_ subsys.FallibleSource = (*RemoteSource)(nil)
	_ subsys.UniverseHinter = (*RemoteSource)(nil)
	_ subsys.ContextSource  = (*RemoteSource)(nil)
	_ subsys.BatchGrader    = (*RemoteSource)(nil)
	_ subsys.Subsystem      = (*Subsystem)(nil)
)

// Subsystem adapts one remote list to the subsys.Subsystem interface,
// so an engine can be planned and evaluated locally over sources that
// live across the wire. The attribute name is the remote list name; a
// remote list is already one evaluated sorted list, so Query ignores
// its target and returns the list itself (conventionally queried with
// target "*", matching the Static subsystem).
type Subsystem struct {
	c    *Client
	list string
}

// Subsystem returns the named remote list as a subsystem.
func (c *Client) Subsystem(list string) (*Subsystem, error) {
	if _, err := c.Source(list); err != nil {
		return nil, err
	}
	return &Subsystem{c: c, list: list}, nil
}

// Subsystems returns every remote list as a subsystem, in the server's
// sorted list order — ready to hand to middleware.New.
func (c *Client) Subsystems() []subsys.Subsystem {
	out := make([]subsys.Subsystem, 0, len(c.meta.Lists))
	for _, name := range c.meta.Lists {
		out = append(out, &Subsystem{c: c, list: name})
	}
	return out
}

// Attribute implements subsys.Subsystem: the remote list name.
func (s *Subsystem) Attribute() string { return s.list }

// Size implements subsys.Subsystem: the remote universe size.
func (s *Subsystem) Size() int { return s.c.meta.N }

// Query implements subsys.Subsystem. Every evaluation returns a fresh
// RemoteSource so each one carries its own bound request context.
func (s *Subsystem) Query(string) (subsys.Source, error) {
	return s.c.Source(s.list)
}
