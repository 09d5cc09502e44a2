package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/storage"
)

// ErrorCode is a machine-readable error class carried in every error
// envelope. Codes are part of the v1 wire contract: clients branch on the
// code, not on the message text.
type ErrorCode string

// Error codes and their HTTP statuses (see httpStatus).
const (
	CodeInvalidArgument  ErrorCode = "invalid_argument"
	CodeNotFound         ErrorCode = "not_found"
	CodePermissionDenied ErrorCode = "permission_denied"
	CodeMethodNotAllowed ErrorCode = "method_not_allowed"
	CodePayloadTooLarge  ErrorCode = "payload_too_large"
	CodeCanceled         ErrorCode = "canceled"
	CodeDeadlineExceeded ErrorCode = "deadline_exceeded"
	CodeUnavailable      ErrorCode = "unavailable"
	CodeInternal         ErrorCode = "internal"
	// CodeReadOnly marks a write refused by a read replica; the envelope's
	// details name the primary to send the write to.
	CodeReadOnly ErrorCode = "read_only"
)

// APIError is the structured error envelope payload of every failed request:
// a stable machine-readable code, a human-readable message and optional
// per-field details.
type APIError struct {
	Code    ErrorCode         `json:"code"`
	Message string            `json:"message"`
	Details map[string]string `json:"details,omitempty"`
}

// Error implements the error interface.
func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Errorf builds an APIError with a formatted message.
func Errorf(code ErrorCode, format string, args ...interface{}) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// readOnlyError is the structured refusal a read replica returns for any
// mutating route; primary names the process that does accept writes.
func readOnlyError(primary string) *APIError {
	err := Errorf(CodeReadOnly, "this server is a read replica; writes go to the primary")
	err.Details = map[string]string{"role": "follower"}
	if primary != "" {
		err.Details["primary"] = primary
	}
	return err
}

// ErrorResponse is the error envelope returned for every failed request.
type ErrorResponse struct {
	Error APIError `json:"error"`
}

// httpStatus maps an error code onto its HTTP status. 499 follows the
// widespread "client closed request" convention for requests whose caller
// disconnected mid-scan.
func httpStatus(code ErrorCode) int {
	switch code {
	case CodeInvalidArgument:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodePermissionDenied:
		return http.StatusForbidden
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodePayloadTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeCanceled:
		return 499
	case CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodeReadOnly:
		return http.StatusForbidden
	default:
		return http.StatusInternalServerError
	}
}

// coerceAPIError normalises any error the stack produces into an APIError:
// typed envelope errors pass through, sentinel errors from storage and
// context map onto their codes, everything else is internal.
func coerceAPIError(err error) *APIError {
	var apiErr *APIError
	switch {
	case errors.As(err, &apiErr):
		return apiErr
	case errors.Is(err, storage.ErrNotFound):
		return &APIError{Code: CodeNotFound, Message: err.Error()}
	case errors.Is(err, storage.ErrAccessDenied):
		return &APIError{Code: CodePermissionDenied, Message: err.Error()}
	case errors.Is(err, storage.ErrTooLarge):
		return &APIError{Code: CodeInvalidArgument, Message: err.Error()}
	case errors.Is(err, storage.ErrReadOnly):
		return &APIError{Code: CodeReadOnly, Message: err.Error()}
	case errors.Is(err, storage.ErrNotDurable):
		return &APIError{Code: CodeUnavailable, Message: err.Error()}
	case errors.Is(err, context.Canceled):
		return &APIError{Code: CodeCanceled, Message: "request canceled by client"}
	case errors.Is(err, context.DeadlineExceeded):
		return &APIError{Code: CodeDeadlineExceeded, Message: "request deadline exceeded"}
	default:
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &APIError{Code: CodePayloadTooLarge,
				Message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return &APIError{Code: CodeInternal, Message: err.Error()}
	}
}

// writeError writes the error envelope for err with its mapped status.
func writeError(w http.ResponseWriter, err error) {
	apiErr := coerceAPIError(err)
	writeJSON(w, httpStatus(apiErr.Code), ErrorResponse{Error: *apiErr})
}
