package curvestore

import (
	"compress/gzip"
	"io"
	"sync"
)

// The gzip codecs of the curve wire are pooled: a new compressor allocates
// several hundred KiB of deflate state, far more than the CSV it
// compresses, and a new decompressor tens of KiB. A codec is Reset before
// each use, which leaves nothing of the previous message: a Reset writer at
// the default level writes what a new one writes. A writer goes back to its
// pool after Close, a reader after its read ended; a pooled reader may keep
// its last source reachable until the next GC empties the pool.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

var gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}

// gzipTo writes p to w as one gzip stream, through a pooled writer.
func gzipTo(w io.Writer, p []byte) error {
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(w)
	_, err := zw.Write(p)
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	return err
}

// gunzip decompresses the gzip stream src holds, through a pooled reader,
// and returns at most limit bytes of its output.
func gunzip(src io.Reader, limit int64) ([]byte, error) {
	zr := gzipReaders.Get().(*gzip.Reader)
	defer gzipReaders.Put(zr)
	if err := zr.Reset(src); err != nil {
		return nil, err
	}
	return io.ReadAll(io.LimitReader(zr, limit))
}
