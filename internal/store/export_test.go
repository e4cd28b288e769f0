package store

// OverflowInvertedStore exposes the overflowInvertedStore fixture to the
// external test package, which warm-starts a sweep cache from it.
var OverflowInvertedStore = overflowInvertedStore
