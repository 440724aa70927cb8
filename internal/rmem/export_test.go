package rmem

// MappedBytes reports the bytes of region mappings not yet unmapped.
func MappedBytes() int64 { return mappedBytes.Load() }
