package directory

// readQueue is the directory's read-completion FIFO: a power-of-two ring
// of readReq. Reservation times are nondecreasing, so one chained event
// walks it head first. A ring keeps that queueing allocation-free in
// steady state (a plain head-indexed slice would grow without bound
// under sustained backlog). The zero value is an empty, ready-to-use
// queue.
type readQueue struct {
	buf  []readReq
	head int
	n    int
}

// Len returns the number of queued requests.
func (q *readQueue) Len() int { return q.n }

// Push appends r at the tail.
func (q *readQueue) Push(r readReq) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

// Pop removes and returns the head. It panics on an empty queue.
func (q *readQueue) Pop() readReq {
	if q.n == 0 {
		panic("directory: pop from empty read queue")
	}
	r := q.buf[q.head]
	q.buf[q.head] = readReq{} // release the reply callback for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

// Front returns the head without removing it. It panics on an empty
// queue.
func (q *readQueue) Front() readReq {
	if q.n == 0 {
		panic("directory: front of empty read queue")
	}
	return q.buf[q.head]
}

// Clear empties the queue in place, keeping the ring storage for reuse.
// Dropped requests are zeroed so the callbacks they held are released.
func (q *readQueue) Clear() {
	clear(q.buf)
	q.head = 0
	q.n = 0
}

func (q *readQueue) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]readReq, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}
