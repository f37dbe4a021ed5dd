package tsdb

// StoreStateBytes sums accountedBytes over every series of db: the store's
// named parts, for the tests outside the package.
func StoreStateBytes(db *DB) (total int64) {
	for i := range db.shards {
		for _, m := range db.shards[i].series {
			tails, payloads, index, headers := accountedBytes(m)
			total += tails + payloads + index + headers
		}
	}
	return total
}
