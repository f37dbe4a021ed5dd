package core

// NewWidenedStream returns a stream that has taken first as its first
// sample and holds its ring as float64 samples from there on, whatever
// form first selected: the reference every integer ring must match.
func NewWidenedStream(cfg StreamConfig, first float64) (*StreamEstimator, error) {
	s, err := NewStreamEstimator(cfg)
	if err != nil {
		return nil, err
	}
	s.Push(first)
	if s.SampleBytes() != 8 {
		s.widen()
	}
	return s, nil
}
