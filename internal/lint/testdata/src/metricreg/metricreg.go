// Package metricregfixture exercises the metricreg analyzer both ways:
// emitting a name absent from the obs catalog fires, emitting a counter
// through a histogram API fires, composing a name at runtime fires
// locally, and catalog-registered names emitted through the right API
// stay quiet. Each case runs through the package-level process registry
// and through a Registry method.
package metricregfixture

import "repro/internal/obs"

// registered emits catalog names through their registered kinds: quiet.
func registered(reg *obs.Registry) {
	obs.Add("pipe.items", 1)
	reg.Add("serve.ingest.batches", 1)
	reg.ObserveMS("serve.classify.latency.ms", 1.5)
	reg.GetHistogram("shard.queue.depth", nil).Observe(2)
}

// unregistered emits a name the obs catalog does not know.
func unregistered(reg *obs.Registry) {
	obs.Add("bogus.metric", 1) // want metricreg
	reg.Add("bogus.metric", 1) // want metricreg
}

// kindMismatch emits a registered counter through the histogram API.
func kindMismatch(reg *obs.Registry) {
	obs.ObserveMS("pipe.items", 2.0)           // want metricreg
	reg.ObserveMS("serve.ingest.batches", 2.0) // want metricreg
}

// dynamicName composes the metric name at runtime, so the registry check
// cannot see it.
func dynamicName(reg *obs.Registry, site string) {
	obs.Add("fault."+site+".errs", 1) // want metricreg
	reg.Add("serve."+site, 1)         // want metricreg
}
