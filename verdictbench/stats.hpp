// Order statistics and the JSON lines the benchmark prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace verdictbench {

// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One JSON object of name -> {"value", "unit"} pairs.
std::string metrics_json(const std::vector<Metric>& metrics);

// Escapes a string for a JSON string literal (quotes included).
std::string json_string(const std::string& text);

// Prints a double with all its significant digits.
std::string json_number(double value);

}  // namespace verdictbench
