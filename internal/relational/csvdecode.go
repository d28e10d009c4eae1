package relational

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"strings"
)

// csvBufferSize is the read buffer of the decoder behind ReadCSV. A line
// longer than the buffer is accumulated, so it bounds nothing but the
// block the row-count estimate samples.
const csvBufferSize = 64 << 10

// csvDecoder reads CSV records exactly as encoding/csv.Reader reads them
// with its defaults (comma-separated, no comment character, strict
// quotes) and a fixed FieldsPerRecord, returning each record as byte
// slices that are valid until the next read. Every line rule, error
// (*csv.ParseError with encoding/csv's sentinels, line and column) and
// field start line is that of encoding/csv; FuzzCSVRecords checks them
// record by record.
//
// A line that holds no quote, the common case of WriteCSV output, is cut
// at its commas in place in the read buffer. Any other record goes
// through encoding/csv's quoted-field state machine, which unescapes the
// fields into recordBuffer and may continue a field over further lines.
type csvDecoder struct {
	r *bufio.Reader
	// fieldsPerRecord is the required field count; 0 lets the first
	// record decide, as encoding/csv's FieldsPerRecord does.
	fieldsPerRecord int
	numLine         int   // input line of the last line read, 1-based
	offset          int64 // input bytes consumed

	rawBuffer    []byte   // a line longer than the read buffer
	recordBuffer []byte   // unescaped fields of a quoted record
	fieldEnds    []int    // end of each field in recordBuffer
	fields       [][]byte // the last record

	// recLine is the line the last record starts on, and the start line of
	// every one of its fields unless quoted is set; fieldLines then holds
	// each field's start line.
	recLine    int
	quoted     bool
	fieldLines []int
}

// newCSVDecoder returns a decoder over r with a bufSize-byte read buffer
// (bufio's minimum of 16 bytes applies).
func newCSVDecoder(r io.Reader, fieldsPerRecord, bufSize int) *csvDecoder {
	return &csvDecoder{r: bufio.NewReaderSize(r, bufSize), fieldsPerRecord: fieldsPerRecord}
}

// fieldLine returns the input line that field i of the last record
// starts on, the line encoding/csv.Reader.FieldPos reports.
func (d *csvDecoder) fieldLine(i int) int {
	if d.quoted {
		return d.fieldLines[i]
	}
	return d.recLine
}

// readLine reads the next line with its trailing newline, as
// encoding/csv does: a line longer than the buffer is accumulated, \r\n
// becomes \n, and a trailing \r before EOF is dropped. If some bytes
// were read, the error is never io.EOF. The line is valid until the
// next read.
func (d *csvDecoder) readLine() ([]byte, error) {
	line, err := d.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		d.rawBuffer = append(d.rawBuffer[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = d.r.ReadSlice('\n')
			d.rawBuffer = append(d.rawBuffer, line...)
		}
		line = d.rawBuffer
	}
	readSize := len(line)
	if readSize > 0 && err == io.EOF {
		err = nil
		if line[readSize-1] == '\r' {
			line = line[:readSize-1]
		}
	}
	d.numLine++
	d.offset += int64(readSize)
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL reports the number of bytes for the trailing \n.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// readRecord reads the next record, skipping blank lines. At the end of
// the input it returns io.EOF; a record with the wrong field count comes
// with a csv.ErrFieldCount error.
func (d *csvDecoder) readRecord() ([][]byte, error) {
	line, errRead := d.readLine()
	for errRead == nil && len(line) == lengthNL(line) {
		line, errRead = d.readLine()
	}
	if errRead == io.EOF {
		return nil, errRead
	}
	d.recLine = d.numLine
	if errRead == nil && bytes.IndexByte(line, '"') < 0 {
		return d.split(line)
	}
	return d.readQuoted(line, errRead)
}

// split cuts a line that holds no quote at each comma. The fields alias
// the line, so nothing is copied.
//
//efes:hot
func (d *csvDecoder) split(line []byte) ([][]byte, error) {
	line = line[:len(line)-lengthNL(line)]
	d.quoted = false
	fields := d.fields[:0]
	for {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			break
		}
		//lint:ignore hotalloc reuses the last record's slice, so it grows only while records widen
		fields = append(fields, line[:i])
		line = line[i+1:]
	}
	fields = append(fields, line)
	d.fields = fields
	return fields, d.checkFieldCount(nil)
}

// position is a 1-based line and byte column.
type position struct {
	line, col int
}

// readQuoted parses a record that holds a quote, or whose line ended in
// a read error, with encoding/csv's state machine; errRead is the error
// that came with line.
func (d *csvDecoder) readQuoted(line []byte, errRead error) ([][]byte, error) {
	const quoteLen = len(`"`)
	const commaLen = len(`,`)
	var err error
	d.quoted = true
	d.recordBuffer = d.recordBuffer[:0]
	d.fieldEnds = d.fieldEnds[:0]
	d.fieldLines = d.fieldLines[:0]
	pos := position{line: d.numLine, col: 1}
	endField := func(start position) {
		d.fieldEnds = append(d.fieldEnds, len(d.recordBuffer))
		d.fieldLines = append(d.fieldLines, start.line)
	}
parseField:
	for {
		if len(line) == 0 || line[0] != '"' {
			// Non-quoted field.
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if j := bytes.IndexByte(field, '"'); j >= 0 {
				err = &csv.ParseError{StartLine: d.recLine, Line: d.numLine, Column: pos.col + j, Err: csv.ErrBareQuote}
				break parseField
			}
			d.recordBuffer = append(d.recordBuffer, field...)
			endField(pos)
			if i >= 0 {
				line = line[i+commaLen:]
				pos.col += i + commaLen
				continue parseField
			}
			break parseField
		}
		// Quoted field.
		fieldPos := pos
		line = line[quoteLen:]
		pos.col += quoteLen
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				// Hit the next quote.
				d.recordBuffer = append(d.recordBuffer, line[:i]...)
				line = line[i+quoteLen:]
				pos.col += i + quoteLen
				switch {
				case len(line) > 0 && line[0] == '"':
					// `""`: an escaped quote.
					d.recordBuffer = append(d.recordBuffer, '"')
					line = line[quoteLen:]
					pos.col += quoteLen
				case len(line) > 0 && line[0] == ',':
					// `",`: end of field.
					line = line[commaLen:]
					pos.col += commaLen
					endField(fieldPos)
					continue parseField
				case lengthNL(line) == len(line):
					// `"\n`: end of line.
					endField(fieldPos)
					break parseField
				default:
					// `"*`: a quote that is neither escaped nor closing.
					err = &csv.ParseError{StartLine: d.recLine, Line: d.numLine, Column: pos.col - quoteLen, Err: csv.ErrQuote}
					break parseField
				}
			case len(line) > 0:
				// Hit the end of the line: the field continues on the next.
				d.recordBuffer = append(d.recordBuffer, line...)
				if errRead != nil {
					break parseField
				}
				pos.col += len(line)
				line, errRead = d.readLine()
				if len(line) > 0 {
					pos.line++
					pos.col = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			default:
				// Abrupt end of input (EOF or error).
				if errRead == nil {
					err = &csv.ParseError{StartLine: d.recLine, Line: pos.line, Column: pos.col, Err: csv.ErrQuote}
					break parseField
				}
				endField(fieldPos)
				break parseField
			}
		}
	}
	if err == nil {
		err = errRead
	}
	fields := d.fields[:0]
	start := 0
	for _, end := range d.fieldEnds {
		fields = append(fields, d.recordBuffer[start:end])
		start = end
	}
	d.fields = fields
	return fields, d.checkFieldCount(err)
}

// checkFieldCount applies encoding/csv's field count rule to the record
// just read, whose parse ended with err: a record of the wrong width is
// an error unless another error came first, and a count of 0 is set by
// the first record.
func (d *csvDecoder) checkFieldCount(err error) error {
	if d.fieldsPerRecord == 0 {
		d.fieldsPerRecord = len(d.fields)
	} else if len(d.fields) != d.fieldsPerRecord && err == nil {
		err = &csv.ParseError{StartLine: d.recLine, Line: d.recLine, Column: 1, Err: csv.ErrFieldCount}
	}
	return err
}

// estimateRecords estimates how many records follow in an input of size
// bytes in all (0 if unknown, which yields no estimate), from the
// newlines of the block the reader has buffered:
// remaining bytes × newlines ÷ buffered bytes, plus an eighth. The
// eighth is half the slack seal tolerates before it clips a slice, so an
// estimate a little under the true count neither regrows the slice nor
// leaves it to be clipped. The estimate is capped at the most records
// the remaining bytes can hold: a record of ncols fields takes at least
// ncols bytes (commas and newline), and at least two (one byte and its
// newline, as a blank line is skipped).
func (d *csvDecoder) estimateRecords(size int64, ncols int) int {
	remaining := size - d.offset
	buffered := d.r.Buffered()
	if remaining <= 0 || buffered == 0 {
		return 0
	}
	block, _ := d.r.Peek(buffered) // already buffered: no read, no error
	est := float64(remaining) * float64(bytes.Count(block, []byte{'\n'})) / float64(buffered) * 9 / 8
	if most := float64(remaining / int64(max(ncols, 2))); est > most {
		est = most
	}
	return int(est)
}

// inputSize reports how many bytes r holds from its current position
// when it can tell without being read (a regular file or an in-memory
// reader), and 0 otherwise.
func inputSize(r io.Reader) int64 {
	switch r := r.(type) {
	case *strings.Reader:
		return int64(r.Len())
	case *bytes.Reader:
		return int64(r.Len())
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0
		}
		return fi.Size() - off
	}
	return 0
}
