package engine

import "kcore"

// GraphOf returns the graph a durable engine serves, so that tests can
// watch its update buffer and fold-backs (both readable from any
// goroutine).
func GraphOf(e Engine) *kcore.Graph { return e.(*durable).inner.G }
