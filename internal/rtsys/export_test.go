package rtsys

// Visits returns how many tasks Walk has handed out so far.
func (s *System) Visits() uint64 { return s.visits }

// NextID returns the handle the next CreateTask issues.
func (s *System) NextID() TaskID { return s.nextID }
