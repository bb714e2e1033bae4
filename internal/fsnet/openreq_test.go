package fsnet

// openRequest is a decoded msgOpen payload in string form: the shape the
// codec tests, fuzz targets, and fake servers work with. The server
// itself decodes opens only as views (decodeOpenView).
type openRequest struct {
	// Path is the demanded file.
	Path string
	// Accessed is the piggybacked access history, oldest first.
	Accessed []string
}

func encodeOpenRequest(req openRequest) []byte {
	return appendOpenRequest(nil, req.Path, req.Accessed)
}

func decodeOpenRequest(payload []byte) (openRequest, error) {
	path, views, err := decodeOpenView(payload, nil)
	if err != nil {
		return openRequest{}, err
	}
	req := openRequest{Path: string(path), Accessed: make([]string, len(views))}
	for i, v := range views {
		req.Accessed[i] = string(v)
	}
	return req, nil
}
