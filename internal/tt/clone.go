package tt

// CloneForServing returns a read-only replica of the table for concurrent
// inference: the clone shares t's core matrices (the compressed parameters)
// and owns every piece of mutable lookup state — its arena ForwardCache,
// where it runs the same batch-local reuse buffer as every table, and its
// metric hooks start empty. Distinct clones therefore never touch shared
// mutable memory on Lookup, so each serving replica can score concurrently
// with the others.
//
// The sharing contract is read-only. Backward/Update on a clone panics: a
// weight write would race with the other replicas' reads. Nor may t train
// while any clone is serving. Training the source and re-cloning is the
// supported update path.
func (t *Table) CloneForServing() *Table {
	return &Table{
		Shape: t.Shape,
		Opts:  t.Opts,
		// Array assignment copies the three matrix pointers: cores are
		// shared storage.
		Cores:    t.Cores,
		readOnly: true,
	}
}
