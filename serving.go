package repro

import "repro/internal/serve"

// Serve is the registry-driven serving entry point: it builds a
// registered model by name and wraps it in a concurrency-safe Scorer in
// one call. The default is the lock-free SnapshotScorer publishing after
// every Learn; options select the publish cadence or hash-sharded
// replicas.
//
//	scorer, err := repro.Serve("DMT", schema,
//		repro.WithServeModelOptions(repro.WithSeed(42)),
//		repro.WithPublishEvery(4))
//	...
//	go trainLoop(scorer)       // scorer.Learn(batch)
//	preds = scorer.PredictBatch(rows, preds) // wait-free, any goroutine
func Serve(name string, schema Schema, opts ...ServeOption) (Scorer, error) {
	cfg := serve.Config{Model: name, Schema: schema}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return serve.New(cfg)
}

// MustServe is Serve for initialisation paths where a failure is fatal.
func MustServe(name string, schema Schema, opts ...ServeOption) Scorer {
	s, err := Serve(name, schema, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// ServeOption configures Serve (see the WithServe.../WithPublishEvery
// constructors).
type ServeOption func(*serve.Config)

// WithPublishEvery sets the snapshot publish cadence: the scorer clones
// and republishes its serving snapshot every n Learn calls (n <= 1 =
// every batch). Reads serve a state at most n-1 batches stale; cheap
// learners can publish every batch, expensive ones amortise the clone.
func WithPublishEvery(n int) ServeOption {
	return func(c *serve.Config) { c.PublishEvery = n }
}

// WithShards serves through n independent model replicas (n <= 0
// defaults to 2; 1 is honoured as a single-replica deployment), each
// behind its own snapshot scorer: rows hash to a replica for both
// learning and prediction, so training and serving scale across cores.
// Each replica sees 1/n of the stream — accuracy on short streams
// trails a single model.
func WithShards(n int) ServeOption {
	return func(c *serve.Config) {
		c.Mode = serve.ModeSharded
		c.Shards = n
	}
}

// WithServeModelOptions forwards functional model options (WithSeed,
// WithLearningRate, ...) to the underlying registry construction.
func WithServeModelOptions(opts ...Option) ServeOption {
	return func(c *serve.Config) { c.Options = append(c.Options, opts...) }
}
