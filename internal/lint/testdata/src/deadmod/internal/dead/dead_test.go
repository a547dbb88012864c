package dead

// A use from a test file does not make Dead live.
func useDead() { Dead() }
